"""Inputs, schedules and the three workloads of the benchmark.

Every workload follows the same shape:

* ``prepare`` generates its inputs from the seed, computes reference
  answers and checks ``fast`` against ``bruteforce`` -- none of it
  timed;
* ``setup`` times, several times over, what a user waits for before
  the first request can be served;
* ``measure`` runs whole passes over the request list for a time
  budget, timing each operation and checking each answer after its
  timer stopped.  With a tracer it also wraps the layers' public calls
  in spans (see :mod:`tracing`).

Timestamps are int64 seconds over a year (``powerlaw_temporal_graph``)
and δ is in seconds, with the inclusive test t3 - t1 <= δ.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import queue
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import count_motifs
from repro.errors import ReproError
from repro.graph.generators import powerlaw_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.client import ServeClient
from repro.storage.format import pack_graph

from tracing import Tracer, instrument

#: ``(src, dst, t)`` int64 columns in time order.
Edges = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Edges per workload at scale 1.
SWEEP_EDGES = 100_000
ONESHOT_EDGES = 50_000
SERVE_EDGES = 20_000

#: Sweep: distinct δ log-spaced from 15 min to 24 h.
SWEEP_DELTAS = 12
#: Oneshot: distinct δ from 1 h to 6 h.
ONESHOT_DELTAS = 24
#: Serve: open-loop arrival rate (requests/s; also stated in the
#: workload's ``why`` in BENCHMARK.json), share of fresh δ, Zipf
#: exponent of the repeats' recency rank, pool workers.
SERVE_RATE = 8.0
SERVE_FRESH_SHARE = 0.1
SERVE_ZIPF = 1.0
SERVE_WORKERS = 2
#: Bruteforce cross-check: a contiguous run of this many edges.
CHECK_EDGES = 600
CHECK_DELTA = 3600

SERVE_GRAPH = "g"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def make_edges(num_edges: int, seed: int) -> Edges:
    """The seeded input, kept as three int64 columns (not Python
    tuples) so that it adds little to the harness's memory."""
    graph = powerlaw_temporal_graph(max(50, num_edges // 20), num_edges, seed=seed)
    return (graph.sources.copy(), graph.destinations.copy(), graph.timestamps.copy())


def edge_records(edges: Edges, lo: int = 0, hi: Optional[int] = None,
                 chunk: int = 4096) -> Iterator[Tuple[int, int, int]]:
    """``(u, v, t)`` int triples of ``edges[lo:hi]``, made a chunk at a time."""
    hi = len(edges[0]) if hi is None else hi
    for start in range(lo, hi, chunk):
        stop = min(hi, start + chunk)
        yield from zip(*(column[start:stop].tolist() for column in edges))


def build_graph(edges: Edges, lo: int = 0, hi: Optional[int] = None) -> TemporalGraph:
    return TemporalGraph(edge_records(edges, lo, hi))


def serial_count(graph, delta: float):
    """The reference answer: serial in-process FAST on the columnar store."""
    return count_motifs(graph, delta, algorithm="fast", backend="columnar", workers=1)


def kernel_seconds(counts) -> float:
    return counts.phase_seconds.get("star_pair", 0.0) + counts.phase_seconds.get("triangle", 0.0)


def sweep_deltas(seed: int, pass_index: int) -> List[float]:
    """12 log-spaced δ in a seeded order; each pass shifts them by one
    second per pass so that no δ repeats within a run."""
    base = np.rint(np.geomspace(900, 86_400, SWEEP_DELTAS)).astype(np.int64)
    order = np.random.default_rng([seed, 1]).permutation(SWEEP_DELTAS)
    return [float(base[i] + pass_index) for i in order]


def oneshot_deltas(seed: int) -> List[float]:
    base = np.rint(np.linspace(3_600, 21_600, ONESHOT_DELTAS)).astype(np.int64)
    order = np.random.default_rng([seed, 2]).permutation(ONESHOT_DELTAS)
    return [float(base[i]) for i in order]


def serve_schedule(seed: int, n: int) -> List[Tuple[float, float, bool]]:
    """``(due offset s, δ, fresh)`` per request, at a fixed rate.

    Request 0 and one seeded request in each later block of
    ``1 / SERVE_FRESH_SHARE`` requests are fresh: their δ was never sent
    before.  The fresh δ take one value from each of equal strata of
    30 min-8 h, in seeded order, so that every seed sends as many fresh
    requests, with δ as spread out.  A repeat draws a δ already sent by
    Zipf rank of recency (rank 1 = the newest fresh δ), so a repeat can
    also arrive while its fresh original is still in flight.
    """
    rng = np.random.default_rng([seed, 3])
    block = int(round(1.0 / SERVE_FRESH_SHARE))
    fresh_at = {0} | {b + int(rng.integers(block)) for b in range(block, n, block)}
    fresh_at = {i for i in fresh_at if i < n}
    bounds = np.linspace(1_800, 28_801, len(fresh_at) + 1).astype(np.int64)
    strata = [int(rng.integers(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    fresh_values = iter(rng.permutation(strata).tolist())
    sent: List[float] = []
    schedule = []
    for i in range(n):
        if i in fresh_at:
            delta, fresh = float(next(fresh_values)), True
            sent.append(delta)
        else:
            weights = 1.0 / np.arange(1, len(sent) + 1) ** SERVE_ZIPF
            rank = int(rng.choice(len(sent), p=weights / weights.sum()))
            delta, fresh = sent[-1 - rank], False
        schedule.append((i / SERVE_RATE, delta, fresh))
    return schedule


def reset_peak_rss() -> None:
    """Restart this process's peak RSS (Linux ``VmHWM``) from its current
    RSS, so that what the harness did before -- generating inputs,
    computing references -- leaves no high-water mark behind."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(hosts_system: bool) -> float:
    """Peak RSS in MiB of the system's largest process: the largest
    waited-for child (daemon, forked workers) or, when this process
    hosts the system, this process since :func:`reset_peak_rss`.

    The largest process, not a sum: forked workers share most of their
    pages with their parent, and summing would count those twice.
    """
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if hosts_system:
        with open("/proc/self/status") as fh:
            hwm = next(line for line in fh if line.startswith("VmHWM:"))
        kib = max(kib, int(hwm.split()[1]))
    return kib / 1024.0


class Tally:
    """Operations attempted and failed; wrong answers also fail the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, wrong: Optional[str] = None) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
            if wrong is not None:
                self.wrong.append(wrong)

    def check(self, got, want, what: str) -> None:
        """One answer: exact grid equality against the reference."""
        same = np.array_equal(np.asarray(got.grid), np.asarray(want.grid))
        self.record(same, None if same else f"{what}: wrong counts")


def bruteforce_check(edges: Edges, seed: int, tally: Tally) -> None:
    """``fast`` columnar equals ``bruteforce`` on a seeded contiguous run."""
    num_edges = len(edges[0])
    start = int(np.random.default_rng([seed, 4]).integers(0, max(1, num_edges - CHECK_EDGES)))
    sub = build_graph(edges, start, min(num_edges, start + CHECK_EDGES))
    tally.check(serial_count(sub, CHECK_DELTA),
                count_motifs(sub, CHECK_DELTA, algorithm="bruteforce"),
                f"fast vs bruteforce on edges[{start}:{start + CHECK_EDGES}]")


def timed_reps(reps: int, fn: Callable[[], None]) -> List[float]:
    out = []
    for _ in range(reps):
        gc.collect()  # start each rep from the same heap state
        tick = time.perf_counter()
        fn()
        out.append(time.perf_counter() - tick)
    return out


class Measured:
    """What one ``measure`` call observed."""

    def __init__(self) -> None:
        self.pass_s: List[float] = []
        self.op_s: List[float] = []
        #: Where each pass's operations end in ``op_s``.
        self.pass_ends: List[int] = []
        #: Open-loop generator lateness per request (serve only).
        self.late_s: List[float] = []
        self.extra: Dict[str, float] = {}

    def pass_ops(self) -> List[List[float]]:
        """``op_s`` split into passes."""
        bounds = [0] + self.pass_ends
        return [self.op_s[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def passes(seconds: float, run_pass: Callable[[int], None], out: Measured) -> None:
    """Run whole passes while the next one is expected to end in budget;
    ``run_pass`` appends its operations' times to ``out.op_s``."""
    start = time.perf_counter()
    while True:
        tick = time.perf_counter()
        run_pass(len(out.pass_s))
        out.pass_s.append(time.perf_counter() - tick)
        out.pass_ends.append(len(out.op_s))
        if time.perf_counter() - start + out.pass_s[-1] > seconds:
            return


def pass_total(tracer: Tracer, name: str, npasses: int) -> float:
    return sum(s.duration for s in tracer.named(name)) / max(1, npasses)


def median_ms(values: Sequence[float]) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def p95_ms(values: Sequence[float]) -> float:
    return float(np.percentile(values, 95)) * 1e3 if len(values) else 0.0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
class Sweep:
    setup_reps = 7
    hosts_system = True

    def __init__(self, seed: int, scale: float, workdir: str, tally: Tally) -> None:
        self.seed, self.tally = seed, tally
        self.edges = make_edges(int(SWEEP_EDGES * scale), seed)
        self.graph: Optional[TemporalGraph] = None
        self.inputs = {"edges": len(self.edges[0]), "deltas_per_pass": SWEEP_DELTAS}
        self.passes_run = 0

    def prepare(self) -> None:
        bruteforce_check(self.edges, self.seed, self.tally)

    def setup(self, tracer: Optional[Tracer] = None) -> List[float]:
        def build() -> None:
            self.graph = None  # one graph alive at a time
            if tracer is None:
                self.graph = build_graph(self.edges)
                self.graph.columnar()
                return
            with tracer.span("graph.build"):
                self.graph = build_graph(self.edges)
            with tracer.span("graph.columnar_build"):
                self.graph.columnar()
        return timed_reps(self.setup_reps, build)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        from repro.core import columnar_kernels

        out = Measured()

        def run_pass(p: int) -> None:
            deltas = sweep_deltas(self.seed, self.passes_run)
            self.passes_run += 1
            for delta in deltas:
                tick = time.perf_counter()
                if tracer is not None:
                    # Serial counts build the δ tables inside the kernels;
                    # build them first, through the wrapped public call,
                    # so that they get a span of their own.
                    columnar_kernels.warm_delta_cache(self.graph.columnar(), delta)
                counts = count_motifs(self.graph, delta, algorithm="fast",
                                      backend="columnar", workers=1)
                out.op_s.append(time.perf_counter() - tick)
                self.tally.record(counts.total() > 0, None if counts.total() > 0
                                  else f"sweep δ={delta}: empty count")

        with instrument_layers(tracer):
            passes(seconds, run_pass, out)
        return out


# ----------------------------------------------------------------------
# oneshot
# ----------------------------------------------------------------------
class Oneshot:
    setup_reps = 11
    hosts_system = True

    def __init__(self, seed: int, scale: float, workdir: str, tally: Tally) -> None:
        self.seed, self.tally = seed, tally
        self.edges = make_edges(int(ONESHOT_EDGES * scale), seed)
        self.path = os.path.join(workdir, "oneshot.rgz")
        self.deltas = oneshot_deltas(seed)
        self.workers = nproc()
        self.inputs = {"edges": len(self.edges[0]), "deltas_per_pass": len(self.deltas),
                       "workers": self.workers}

    def prepare(self) -> None:
        bruteforce_check(self.edges, self.seed, self.tally)
        graph = build_graph(self.edges)
        self.refs = {d: serial_count(graph, d) for d in self.deltas}

    def setup(self, tracer: Optional[Tracer] = None) -> List[float]:
        return timed_reps(self.setup_reps,
                          lambda: pack_graph(build_graph(self.edges), self.path))

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        out = Measured()

        def run_pass(p: int) -> None:
            for delta in self.deltas:
                tick = time.perf_counter()
                counts = count_motifs(self.path, delta, workers=self.workers)
                out.op_s.append(time.perf_counter() - tick)
                self.tally.check(counts, self.refs[delta], f"oneshot δ={delta}")

        with instrument_layers(tracer):
            passes(seconds, run_pass, out)
        if tracer is not None:
            out.extra["parallel.efficiency"] = parallel_efficiency(tracer, self.refs)
        return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Serve:
    setup_reps = 9
    hosts_system = False

    def __init__(self, seed: int, scale: float, workdir: str, tally: Tally) -> None:
        self.seed, self.tally = seed, tally
        self.edges = make_edges(int(SERVE_EDGES * scale), seed)
        self.path = os.path.join(workdir, "serve.rgz")
        self.socket = os.path.join(workdir, "serve.sock")
        self.workdir = workdir
        self.connections = nproc()
        self.daemon: Optional[subprocess.Popen] = None
        self.inputs = {"edges": len(self.edges[0]), "rate_per_s": SERVE_RATE,
                       "fresh_share": SERVE_FRESH_SHARE, "connections": self.connections,
                       "workers": SERVE_WORKERS}

    def prepare(self) -> None:
        bruteforce_check(self.edges, self.seed, self.tally)
        graph = build_graph(self.edges)
        pack_graph(graph, self.path)
        self.graph = graph
        self.refs: Dict[float, object] = {}

    def _references(self, schedule) -> None:
        for _, delta, _ in schedule:
            if delta not in self.refs:
                self.refs[delta] = serial_count(self.graph, delta)

    def _spawn(self) -> None:
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        with open(os.path.join(self.workdir, "daemon.log"), "ab") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--graph", f"{SERVE_GRAPH}={self.path}", "--socket", self.socket,
                 "--workers", str(SERVE_WORKERS)],
                env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        wait_for_ping(self.socket, self.daemon)

    def stop(self) -> None:
        if self.daemon is not None:
            # The daemon's pool workers and resource tracker can outlive
            # it by a moment: wait for them too, so that no set-up or
            # later run shares the CPUs with them.
            family = descendants(self.daemon.pid)
            self.daemon.terminate()
            try:
                self.daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
            self.daemon = None
            deadline = time.monotonic() + 30
            while any(process_start(pid) == start for pid, start in family):
                if time.monotonic() > deadline:
                    for pid, start in family:
                        if process_start(pid) == start:
                            os.kill(pid, signal.SIGKILL)
                    deadline = float("inf")
                time.sleep(0.005)

    def setup(self, tracer: Optional[Tracer] = None) -> List[float]:
        times: List[float] = []
        for _ in range(self.setup_reps):
            self.stop()  # untimed: the previous daemon's shutdown
            times += timed_reps(1, self._spawn)
        return times

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measured:
        schedule = serve_schedule(self.seed, max(1, int(round(SERVE_RATE * seconds))))
        self._references(schedule)
        if tracer is None:
            if self.daemon is None:
                self._spawn()
            try:
                return self._drive(schedule, None)
            finally:
                self.stop()
        with instrument_layers(tracer):
            with InProcessDaemon(self.path, self.socket, tracer):
                with ServeClient(self.socket) as client:
                    for _ in range(20):
                        with tracer.span("serve.ping"):
                            client.ping()
                out = self._drive(schedule, tracer)
        out.extra["parallel.efficiency"] = parallel_efficiency(tracer, self.refs)
        out.extra["serve.queue_wait_ms"] = median_ms(queue_waits(tracer))
        out.extra["serve.dispatch_busy_ratio"] = (
            sum(s.duration for s in tracer.named("serve.execute")) / out.pass_s[0])
        return out

    def _drive(self, schedule, tracer: Optional[Tracer]) -> Measured:
        """Open loop: a generator enqueues each request when due; one
        sender thread per connection takes the next due request.  With
        a tracer, each request is a ``serve.request`` span carrying its
        id, which the daemon-side spans of that request carry too."""
        out = Measured()
        pending: "queue.Queue" = queue.Queue()
        latency: List[Optional[float]] = [None] * len(schedule)
        finished: List[float] = []

        def sender() -> None:
            with ServeClient(self.socket) as client:
                while True:
                    item = pending.get()
                    if item is None:
                        return
                    i, due, delta = item
                    request = (contextlib.nullcontext() if tracer is None
                               else tracer.span("serve.request", f"r{i}"))
                    try:
                        with request:
                            counts = client.count(SERVE_GRAPH, delta, algorithm="fast",
                                                  request_id=f"r{i}")
                    except Exception as exc:  # refusals, deadline misses, lost daemon
                        self.tally.record(False)
                        print(f"serve request {i} failed: {exc!r}", file=sys.stderr)
                        continue
                    done = time.perf_counter()
                    latency[i] = done - due
                    finished.append(done)
                    self.tally.check(counts, self.refs[delta], f"serve r{i} δ={delta}")

        threads = [threading.Thread(target=sender, daemon=True)
                   for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        start = time.perf_counter() + 0.05
        for i, (offset, delta, _) in enumerate(schedule):
            due = start + offset
            time.sleep(max(0.0, due - time.perf_counter()))
            out.late_s.append(time.perf_counter() - due)
            pending.put((i, due, delta))
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join(timeout=120)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve senders did not finish")
        out.pass_s = [max(finished, default=start) - start]
        out.op_s = [x for x in latency if x is not None]
        out.pass_ends = [len(out.op_s)]
        fresh = [x for x, (_, _, f) in zip(latency, schedule) if f and x is not None]
        repeat = [x for x, (_, _, f) in zip(latency, schedule) if not f and x is not None]
        with ServeClient(self.socket) as client:
            stats = client.stats()
        requests = max(1, stats["requests"])
        out.extra.update({
            "serve.fresh_p50_ms": median_ms(fresh),
            "serve.repeat_p50_ms": median_ms(repeat),
            "serve.cache_hit_ratio": stats["pool"]["cache_hits"] / requests,
            "serve.coalesced": float(stats["coalesced"]),
            "serve.executions": float(stats["executions"]),
            "pool.jobs": float(stats["pool"]["jobs"]),
            "pool.batches": float(stats["pool"]["batches"]),
        })
        return out


def process_start(pid: int) -> Optional[int]:
    """Start time of a live process (Linux ``/proc``), which tells it
    apart from a later process given the same pid; ``None`` once it has
    exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] in "ZX" else int(fields[19])


def descendants(pid: int) -> List[Tuple[int, int]]:
    """``(pid, start time)`` of every live descendant of ``pid``."""
    children: Dict[int, List[int]] = {}
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            todo.append(child)
            start = process_start(child)
            if start is not None:
                found.append((child, start))
    return found


def wait_for_ping(path: str, process: Optional[subprocess.Popen], timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            with ServeClient(path, timeout=10.0) as client:
                client.ping()
            return
        except ReproError:
            if process is not None and process.poll() is not None:
                raise RuntimeError(f"serve daemon exited with {process.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("serve daemon did not answer ping in time")
            time.sleep(0.005)


class InProcessDaemon:
    """``ServeDaemon`` hosted on a thread of this process (traced runs),
    so the service's public calls can be wrapped in spans."""

    def __init__(self, path: str, socket_path: str, tracer: Tracer) -> None:
        self.path, self.socket_path, self.tracer = path, socket_path, tracer

    def __enter__(self) -> "InProcessDaemon":
        from repro.serve.daemon import ServeDaemon
        from repro.serve.service import MotifService, ServiceConfig
        from repro.storage import format as storage_format

        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        with self.tracer.span("serve.setup"):
            self.service = MotifService(ServiceConfig(workers=SERVE_WORKERS))
            self.service.add_graph(SERVE_GRAPH, storage_format.open_packed(self.path))
            self.loop = asyncio.new_event_loop()
            daemon = ServeDaemon(self.service, socket_path=self.socket_path)
            self.task = self.loop.create_task(daemon.serve_forever())
            self.thread = threading.Thread(target=self.loop.run_until_complete,
                                           args=(self.task,), daemon=True)
            self.thread.start()
            wait_for_ping(self.socket_path, None)
        return self

    def __exit__(self, *exc) -> None:
        self.loop.call_soon_threadsafe(self.task.cancel)
        self.thread.join(timeout=30)
        self.loop.close()
        self.service.close()


def queue_waits(tracer: Tracer) -> List[float]:
    """Submit end -> start of the group execution that carried its δ
    (0 when it joined an execution already running)."""
    executions = sorted(tracer.named("serve.execute"), key=lambda s: s.start)
    waits = []
    for admit in tracer.named("serve.admit"):
        delta = admit.attrs["delta"]
        for execution in executions:
            if delta not in execution.attrs["deltas"] or execution.end < admit.end:
                continue
            waits.append(max(0.0, execution.start - admit.end))
            break
    return waits


def parallel_efficiency(tracer: Tracer, refs: Dict[float, object]) -> float:
    """Median over uncached parallel jobs of serial kernel seconds over
    (workers x parallel wall seconds)."""
    ratios = [
        kernel_seconds(refs[s.attrs["delta"]]) / (s.attrs["workers"] * s.duration)
        for s in tracer.named("parallel.run")
        if not s.attrs.get("cache_hit") and s.attrs.get("delta") in refs
    ]
    return float(np.median(ratios)) if ratios else 0.0


WORKLOADS = {"sweep": Sweep, "oneshot": Oneshot, "serve": Serve}


# ----------------------------------------------------------------------
# the layers' public calls, wrapped in traced runs
# ----------------------------------------------------------------------
def _run_batches_attrs(args, kwargs, attrs):
    attrs["delta"] = float(args[1])
    attrs["batches"] = len(args[2])
    attrs["workers"] = int(args[3])
    pool = kwargs.get("pool")
    if pool is None:
        return None
    hits = pool.stats["cache_hits"]

    def after() -> None:
        attrs["cache_hit"] = pool.stats["cache_hits"] > hits
    return after


def _handle_attrs(args, kwargs, attrs) -> None:
    message = args[1]
    if isinstance(message, dict):
        attrs["request_id"] = message.get("id")


def _decode_attrs(args, kwargs, attrs) -> None:
    attrs["request_id"] = args[0].get("id")


def _admit_attrs(args, kwargs, attrs) -> None:
    attrs["request_id"] = args[1].get("id")
    attrs["delta"] = float(args[1]["delta"])


def _execute_attrs(args, kwargs, attrs) -> None:
    attrs["deltas"] = [float(d) for d in args[1]]


@contextlib.contextmanager
def instrument_layers(tracer: Optional[Tracer]) -> Iterator[None]:
    """Spans around every public call the per-layer metrics name; a
    no-op without a tracer."""
    if tracer is None:
        yield
        return
    from repro.core import api, columnar_kernels, fast_star, fast_tri
    from repro.parallel import hare
    from repro.parallel.pool import WorkerPool
    from repro.serve import daemon, service
    from repro.storage import format as storage_format

    with instrument(tracer, [
        (api, "execute", "core.execute", None),
        (columnar_kernels, "warm_delta_cache", "core.delta_tables", None),
        (fast_star, "count_star_pair", "core.star_pair", None),
        (fast_tri, "count_triangle", "core.triangle", None),
        (storage_format, "open_packed", "storage.open", None),
        (hare, "run_batches", "parallel.run", _run_batches_attrs),
        (WorkerPool, "publish", "pool.publish", None),
        (daemon.ServeDaemon, "handle_message", "serve.handle", _handle_attrs),
        (daemon, "parse_count", "serve.decode", _decode_attrs),
        (daemon, "encode_counts", "serve.encode", None),
        (service.MotifService, "submit", "serve.admit", _admit_attrs),
        (service, "count_motifs_sweep", "serve.execute", _execute_attrs),
    ]):
        yield


def layer_metrics(tracer: Tracer, measured: Measured, setup_tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics the spans give; ``run.py`` reports a
    declared layer the workload does not reach as 0.

    ``_ms`` metrics are medians per call; ``_s`` metrics are seconds
    per pass over the request list (``graph.columnar_build_s``: per
    set-up).
    """
    npasses = len(measured.pass_s)
    parallel = tracer.named("parallel.run")
    values = {
        "graph.columnar_build_s": float(np.median(
            [s.duration for s in setup_tracer.named("graph.columnar_build")] or [0.0])),
        "core.delta_tables_s": pass_total(tracer, "core.delta_tables", npasses),
        "core.star_pair_s": pass_total(tracer, "core.star_pair", npasses),
        "core.triangle_s": pass_total(tracer, "core.triangle", npasses),
        "core.execute_self_ms": median_ms(tracer.self_times("core.execute")),
        "storage.open_ms": median_ms([s.duration for s in tracer.named("storage.open")]),
        "parallel.run_s": pass_total(tracer, "parallel.run", npasses),
        "parallel.batches_per_job": float(np.median(
            [s.attrs["batches"] for s in parallel] or [0])),
        "pool.publish_ms": median_ms([s.duration for s in tracer.named("pool.publish")]),
        "serve.ping_rtt_ms": median_ms([s.duration for s in tracer.named("serve.ping")]),
        "serve.decode_ms": median_ms([s.duration for s in tracer.named("serve.decode")]),
        "serve.encode_ms": median_ms([s.duration for s in tracer.named("serve.encode")]),
        "serve.admit_ms": median_ms([s.duration for s in tracer.named("serve.admit")]),
        "serve.execute_ms": median_ms([s.duration for s in tracer.named("serve.execute")]),
        "serve.gen_late_ms": p95_ms(measured.late_s),
    }
    values.update(measured.extra)
    return values
