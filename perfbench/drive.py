"""Load generation: set-up timing, the in-process closed loop, the TCP
open loop, and the checks run after each pass.

Each loop returns a ``Pass``: per request its kind, latency and
response, plus the set-up times and peak memory of the process that held
the ``Service``.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from spans import percentile

HERE = Path(__file__).resolve().parent
PROBE = 'LIST jobtag="readiness-probe"'
# the closed loop draws requests from its generator in chunks, and
# calibrates after each (see calibrate()); neither is timed
CHUNK = 10
# a server that has not answered its readiness probe by then has failed
READY_TIMEOUT_S = 60.0
# how long the open loop waits for replies after the last line is due
DRAIN_S = 30.0
# time of one calibration (best of two runs of _calibration_work) at the
# reference speed: about the fastest the 2-vCPU virtual machine ran it.  In-process
# times are scaled to that speed; see calibrate().
CALIBRATION_REF_NS = 1_000_000
# peak memory is read once this many requests are done: a closed loop does
# more requests in its time on a faster host or program, and the job table
# grows with them, so a peak at the end would follow speed, not memory use
RSS_AT_REQUESTS = 4000
# a closed loop gives up after this many times its scaled run time in wall
# clock time, so a run on a very slow host still ends in time
WALL_LIMIT = 4


@dataclass
class Pass:
    requests: list  # gen.Request, in the order sent
    responses: list  # response line, or None when none came back
    latency_us: list  # per request; open loop: from its due time; in process:
    # scaled to the reference speed (see calibrate())
    service_us: list  # per request: from send to response, wall clock
    late_us: list  # open loop: how late each request was sent
    elapsed_s: float
    setup_s: list
    rss_peak_mb: float
    rss_base_mb: float = 0.0  # resident size before the first set-up
    rss_at: int = 0  # requests done when rss_peak_mb was read
    wall_elapsed_s: float = 0.0  # elapsed_s before scaling to the reference speed
    slowdown: float = 1.0  # median host slowdown against the reference speed
    audit_records: int = 0  # appended during the pass
    log_bytes: int = 0  # appended to audit + event log during the pass
    snapshot: str = ""  # live JobManager.snapshot() at the end
    failures: list = field(default_factory=list)  # (what, detail)
    spans: list = field(default_factory=list)  # server spans (wire, traced)
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)  # entry points the server could not wrap
    exhausted: bool = False  # a closed loop stopped before its time was up


def proc_status_mb(field: str, pid="self") -> float:
    """A memory field of /proc/<pid>/status (VmHWM: peak resident size)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def _log_size(conf_dir: Path) -> tuple[int, int]:
    audit, events = conf_dir / "audit.log", conf_dir / "events.log"
    lines = len(audit.read_bytes().splitlines()) if audit.exists() else 0
    size = sum(p.stat().st_size for p in (audit, events) if p.exists())
    return lines, size


# -- in process ----------------------------------------------------------


def run_inprocess(conf: Path, stream, seconds: float, setups: int,
                  tracer=None, marks=None) -> Pass:
    """Closed loop, one caller, fed from the generator ``stream``.  With a
    tracer, ``marks`` receives the span positions where set-up and the
    timed requests begin."""
    from gridauthz.service import Service, ServiceConfig

    # the generated inputs stay out of the collector's way; the service's
    # own objects are collected as usual
    gc.collect()
    gc.freeze()
    try:
        return _closed_loop(Service, ServiceConfig.from_file(conf), stream, seconds, setups,
                            tracer, marks, conf.parent)
    finally:
        gc.unfreeze()


def _calibration_work():
    """Fixed pure-Python work of the kinds the service does: string
    formatting and splitting, dict inserts, a sort."""
    table = {}
    for i in range(1000):
        dn = f"/O=Grid/O=BenchVO/OU=site-{i % 20:02d}/CN=user-{i:04d}"
        table[dn] = dn.rsplit("/", 1)[-1].lower()
    return sorted(table.values())[:10]


def calibrate() -> float:
    """How much slower than the reference speed the host runs now.

    The virtual machine's speed drifts by up to ~2x within seconds (its
    CPU time grows with wall time, so this is not steal; other tenants
    share the core).  A fixed loop timed next to the measured work tracks
    it, and dividing a time by this factor scales it to the reference
    speed.  The better of two runs leaves out most preemptions.
    """
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        _calibration_work()
        took = time.perf_counter_ns() - t0
        best = took if best is None else min(best, took)
    return best / CALIBRATION_REF_NS


def _closed_loop(Service, config, stream, seconds, setups, tracer, marks, conf_dir):
    """Times are scaled to the reference speed by the mean of the
    calibrations just before and just after the timed work: each set-up,
    and each chunk of requests.  The loop runs for ``seconds`` of scaled
    time, so it does about the same requests, and leaves the job table
    about as large, however fast the host runs; it stops early, and says
    so, after ``WALL_LIMIT`` times ``seconds`` of wall-clock time."""
    rss_base = proc_status_mb("VmRSS")
    if tracer is not None:
        marks["setup"] = tracer.mark()
    setup_s, slowdowns = [], [calibrate()]
    for i in range(setups):
        gc.collect()  # the previous set-up's garbage is not this one's cost
        t0 = time.perf_counter()
        svc = Service(config)
        took = time.perf_counter() - t0
        slowdowns.append(calibrate())
        setup_s.append(took / ((slowdowns[-2] + slowdowns[-1]) / 2))
        if i < setups - 1:
            svc.close()
    audit0, bytes0 = _log_size(conf_dir)
    gc.collect()
    if tracer is not None:
        marks["run"] = tracer.mark()

    handle = svc.handle_request
    clock = time.perf_counter_ns
    sent, responses, service_ns, latency_us = [], [], [], []
    rss = None
    budget = int(seconds * 1e9)
    elapsed = 0  # wall-clock time spent in the loop below, chunk making excluded
    scaled_elapsed = 0.0
    slowdowns.append(calibrate())
    time_up = False
    while not time_up and elapsed < WALL_LIMIT * budget:
        chunk = list(itertools.islice(stream, CHUNK))
        start = prev = clock()
        first = len(service_ns)
        for req in chunk:
            t0 = clock()
            resp = handle(req.line)
            t1 = clock()
            sent.append(req)
            responses.append(resp)
            service_ns.append(t1 - t0)
            prev = t1
            # the rest of a chunk is never sent later: its SUBMITs fix the
            # job ids that later requests name
            time_up = scaled_elapsed + (t1 - start) / slowdowns[-1] >= budget
            if time_up:
                break
        elapsed += prev - start
        slowdowns.append(calibrate())
        slowdown = (slowdowns[-2] + slowdowns[-1]) / 2
        latency_us += [ns / 1e3 / slowdown for ns in service_ns[first:]]
        scaled_elapsed += (prev - start) / slowdown
        if rss is None and len(sent) >= RSS_AT_REQUESTS:
            rss = proc_status_mb("VmHWM")
        if len(chunk) < CHUNK:
            break
    rss_at = len(sent) if rss is None else RSS_AT_REQUESTS
    if rss is None:
        rss = proc_status_mb("VmHWM")
    snapshot = svc.jobmanager.snapshot()
    svc.close()
    audit1, bytes1 = _log_size(conf_dir)
    return Pass(sent, responses, latency_us, [ns / 1e3 for ns in service_ns], [],
                scaled_elapsed / 1e9, setup_s, rss, rss_base, rss_at, elapsed / 1e9,
                statistics.median(slowdowns), audit1 - audit0, bytes1 - bytes0, snapshot,
                exhausted=not time_up)


# -- over loopback TCP ---------------------------------------------------


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``gridauthz serve`` subprocess started through serve.py."""

    def __init__(self, root: Path, conf: Path, port: int, spans: Path | None):
        self.conf, self.port = conf, port
        self.snapshot = conf.parent / "snapshot.txt"
        cmd = [sys.executable, str(HERE / "serve.py"), "--config", str(conf),
               "--snapshot", str(self.snapshot)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.log = open(conf.parent / "server.out", "wb")
        self.proc = subprocess.Popen(cmd, cwd=root, stdout=self.log, stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL)

    def wait_ready(self):
        """Connect and get an answer to one request; raises on timeout."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: "
                                   f"{(self.conf.parent / 'server.out').read_text()[-2000:]}")
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=5) as s:
                    s.sendall((PROBE + "\n").encode())
                    data = b""
                    while not data.endswith(b"\n"):
                        chunk = s.recv(4096)
                        if not chunk:
                            break
                        data += chunk
                    if data.startswith(b"OK"):
                        return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not become ready")
            time.sleep(0.002)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def start_server(root: Path, conf_dir: Path, write_conf, spans: Path | None):
    """Fresh logs, a free port, a started server; returns (server, setup seconds)."""
    for name in ("audit.log", "events.log", "snapshot.txt"):
        (conf_dir / name).unlink(missing_ok=True)
    port = free_port()
    conf = write_conf(f"127.0.0.1:{port}")
    t0 = time.perf_counter()
    server = Server(root, conf, port, spans)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def run_wire(root: Path, conf_dir: Path, write_conf, stream, setups: int,
             spans: Path | None = None) -> Pass:
    gc.collect()
    gc.freeze()
    setup_s = []
    for i in range(setups):
        server, took = start_server(root, conf_dir, write_conf, spans if i == setups - 1 else None)
        setup_s.append(took)
        if i < setups - 1:
            server.stop()
    # no collector pauses in the client while it keeps time
    gc.disable()
    try:
        result = _open_loop(server.port, stream)
        rss = proc_status_mb("VmHWM", server.proc.pid)
    finally:
        gc.enable()
        gc.unfreeze()
        server.stop()
    audit, size = _log_size(conf_dir)
    result.setup_s, result.rss_peak_mb = setup_s, rss
    result.audit_records, result.log_bytes = audit, size
    result.snapshot = server.snapshot.read_text() if server.snapshot.exists() else ""
    if spans is not None and spans.exists():
        dumped = json.loads(spans.read_text())
        result.spans = [tuple(s[:6]) + (tuple(s[6]) if isinstance(s[6], list) else s[6],)
                        for s in dumped["spans"]]
        result.counts = dumped["counts"]
        result.missing = dumped["missing"]
    return result


def _open_loop(port: int, stream) -> Pass:
    """Send each line at its due time on its connection; read as replies come.

    The client sends each line at once (TCP_NODELAY) and otherwise keeps
    the kernel's defaults, delayed ACKs included.  The server does not set
    TCP_NODELAY, so a reply written while the previous one is unacknowledged
    waits for the client's next request or its delayed-ACK timer; that
    wait is part of the latency measured here.
    """
    socks = []
    for _ in range(2):
        s = socket.create_connection(("127.0.0.1", port))
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        socks.append(s)
    # select(2) waits with microsecond resolution; epoll rounds up to 1 ms
    sel = selectors.SelectSelector()
    for i, s in enumerate(socks):
        sel.register(s, selectors.EVENT_READ, i)
    n = len(stream)
    payload = [(r.line + "\n").encode() for r in stream]
    clock = time.perf_counter_ns
    sent = [0] * n
    got = [0] * n
    responses = [None] * n
    outstanding = [deque(), deque()]
    buffers = [b"", b""]
    start = clock() + 20_000_000  # first line due 20 ms from now
    due = [start + int(r.due * 1e9) for r in stream]
    give_up = due[-1] + int(DRAIN_S * 1e9) if n else start
    nxt = done = 0
    try:
        while done < n:
            now = clock()
            if nxt < n and now >= due[nxt]:
                conn = stream[nxt].conn
                socks[conn].sendall(payload[nxt])
                sent[nxt] = clock()
                outstanding[conn].append(nxt)
                nxt += 1
                continue
            if now > give_up:
                break
            wait = (due[nxt] - now) / 1e9 if nxt < n else 0.2
            for key, _ in sel.select(min(max(wait, 0.0), 0.2)):
                conn = key.data
                data = key.fileobj.recv(1 << 16)
                t = clock()
                if not data:
                    raise ConnectionError("server closed a connection")
                buffers[conn] += data
                while b"\n" in buffers[conn]:
                    line, _, buffers[conn] = buffers[conn].partition(b"\n")
                    j = outstanding[conn].popleft()
                    got[j] = t
                    responses[j] = line.decode("utf-8")
                    done += 1
    finally:
        sel.close()
        for s in socks:
            s.close()
    answered = [j for j in range(n) if responses[j] is not None]
    last = max((got[j] for j in answered), default=start)
    return Pass(
        list(stream), responses,
        [(got[j] - due[j]) / 1e3 if responses[j] is not None else None for j in range(n)],
        [(got[j] - sent[j]) / 1e3 if responses[j] is not None else None for j in range(n)],
        [(sent[j] - due[j]) / 1e3 for j in range(nxt)],
        (last - start) / 1e9, [], 0.0)


# -- checks --------------------------------------------------------------


def check(result: Pass, conf: Path) -> list:
    """Compare each response class with its prediction, the audit record
    count with the decisions made, and a fresh replay with the live table.
    Returns one (what, detail) entry per failure."""
    from gridauthz.service import Service, ServiceConfig

    failures = []
    for req, resp in zip(result.requests, result.responses):
        if resp is None:
            failures.append(("no-response", req.line))
        elif resp.split(" ", 1)[0] not in req.expect:
            failures.append(("class", f"{req.line} -> {resp}; expected {'|'.join(req.expect)}"))
    expected_audits = sum(r.audits for r in result.requests)
    if result.audit_records != expected_audits:
        failures.append(("audit", f"{result.audit_records} audit records for "
                                  f"{expected_audits} decisions"))
    fresh = Service(ServiceConfig.from_file(conf))
    try:
        if fresh.jobmanager.snapshot() != result.snapshot:
            failures.append(("replay", "replayed job table differs from the live one"))
    finally:
        fresh.close()
    return failures


def summarize(values):
    """(p50, p99, samples, samples beyond p99)."""
    values = [v for v in values if v is not None]
    p99 = percentile(values, 99)
    return percentile(values, 50), p99, len(values), sum(1 for v in values if v > p99)


def env_record(root: Path, seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "log_flush": "flush after every record, no fsync",
        "wire_link": "loopback interface (127.0.0.1), not a real network link",
        "time_scale": (f"in-process times scaled to the speed at which the calibration "
                       f"loop takes {CALIBRATION_REF_NS / 1e6:g} ms; wire times are wall clock"),
    }
