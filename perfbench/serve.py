"""serve-churn / serve-reads: the ``repro serve`` daemon under open-loop load.

The daemon runs in its own process (``daemon.py``).  This process is the
load generator: one thread, ``nproc`` connections, sending each request
at its scheduled time whether or not earlier ones were answered (an open
loop, as independent users make).  Latency is timed from the scheduled
send time, so a stall also charges the requests queued behind it.  The
generator's own lateness is recorded; a step where it fell behind is
invalid rather than slow.

The schedule is a reference step (latency and daemon CPU are reported
here) followed by a ladder of rising rates; the ladder stops at the
first step that misses the p99 limit, grows a backlog or is invalid.
After the timed window the daemon's request log is replayed through
``replay_request_log`` and must reproduce the daemon's state digest.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field

from common import BACKEND, BENCH_DIR, ROOT, median, percentile, program_env, vm_hwm_mib
from inputs import STEP_GAP_S, ServeInputs, Slot

#: Client connections: nproc, capped at 2 like the cluster pool.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
READY_TIMEOUT_S = 60.0
#: How long a step waits for its last responses before counting timeouts.
RESPONSE_TIMEOUT_S = 5.0
#: A step is invalid when the generator's p99 lateness exceeds this share
#: of the workload's p99 latency limit.
LATE_SHARE = 0.1

_HEAD = re.compile(rb'\{"v":\d+,"id":(\d+),"ok":(true|false)')
_CODE = re.compile(rb'"code":"([a-z-]+)"')
_REFUSED = ("busy", "capacity")


def service_config(inputs: ServeInputs) -> dict:
    shape = inputs.shape
    return {
        "hosts": shape.hosts,
        "backend": BACKEND,
        "seed": inputs.service_seed,
        "attack_budget": shape.attack_budget,
    }


def _request(rid: int, op: str, **params) -> bytes:
    doc = {"v": 1, "id": rid, "op": op, "params": params}
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


class Daemon:
    """One daemon process on an ephemeral localhost port."""

    def __init__(self, inputs: ServeInputs, workdir, *, trace: bool):
        self.config = service_config(inputs)
        self.dump = workdir / f"daemon-spans-{time.monotonic_ns()}.json" if trace else None
        args = [sys.executable, str(BENCH_DIR / "daemon.py"), json.dumps(self.config)]
        if self.dump is not None:
            args += ["--trace", str(self.dump)]
        self._stderr = open(workdir / "daemon.err", "ab")
        # Unbuffered, so the selector sees every line the daemon printed.
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=self._stderr, env=program_env(), cwd=ROOT,
            bufsize=0,
        )
        self.socks: list[socket.socket] = []
        self._stopped = False
        try:
            self._cpu_clock = _cpu_clock_of(self.proc.pid)
            self.port = self._wait_ready()
            self.socks = [
                socket.create_connection(("127.0.0.1", self.port), timeout=READY_TIMEOUT_S)
                for _ in range(CONNECTIONS)
            ]
        except BaseException:
            self.stop()
            raise
        for sock in self.socks:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _wait_ready(self) -> int:
        self.kernel_s = float(self._read_line(b"perfbench: kernel_s ").split()[2])
        return int(self._read_line(b"serve: listening on tcp:").rsplit(b":", 1)[1])

    def _read_line(self, prefix: bytes) -> bytes:
        """The daemon's next stdout line starting with *prefix*."""
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + READY_TIMEOUT_S
        try:
            while time.monotonic() < deadline:
                if not sel.select(deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith(prefix):
                    return line
        finally:
            sel.close()
        raise RuntimeError(f"serve daemon did not print {prefix.decode()!r}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used so far (ns resolution)."""
        return time.clock_gettime(self._cpu_clock)

    def call(self, lines: list[bytes]) -> list[bytes]:
        """Send *lines* on a fresh connection and wait for as many
        response lines (blocking; used outside the timed window).  A
        connection of its own cannot hand back a late reply to a request
        of the timed window."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=READY_TIMEOUT_S) as sock:
            sock.sendall(b"".join(lines))
            buf = bytearray()
            while buf.count(b"\n") < len(lines):
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise RuntimeError("serve daemon closed the connection")
                buf += chunk
        return bytes(buf).split(b"\n")[: len(lines)]

    def stop(self) -> None:
        """Graceful SIGTERM drain; kill if it does not finish."""
        if self._stopped:
            return
        self._stopped = True
        for sock in self.socks:
            sock.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()


def _cpu_clock_of(pid: int) -> int:
    """The POSIX CPU-time clock of another process."""
    libc = ctypes.CDLL(None, use_errno=True)
    clock = ctypes.c_int()
    if libc.clock_getcpuclockid(ctypes.c_int(pid), ctypes.byref(clock)) != 0:
        raise OSError(ctypes.get_errno(), "clock_getcpuclockid failed")
    return clock.value


def prefill(daemon: Daemon, inputs: ServeInputs) -> list[str]:
    """Place the pre-fill VMs; returns the names that were placed."""
    lines = [
        _request(i + 1, "place_vm", name=f"pre{i}", memory_mib=size)
        for i, size in enumerate(inputs.prefill_sizes)
    ]
    placed = []
    for line in daemon.call(lines):
        m = _HEAD.match(line)
        if m is None:
            raise RuntimeError(f"malformed pre-fill response: {line[:80]!r}")
        if m.group(2) == b"true":
            placed.append(f"pre{int(m.group(1)) - 1}")
    return placed


@dataclass
class StepResult:
    rate: int
    reference: bool
    sent: int = 0
    ok: int = 0
    refused: int = 0
    failed: int = 0
    #: Request latencies (ms) from scheduled send time; refused and
    #: failed requests count as infinitely late.
    latency_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    backlog: int = 0
    #: request id -> latency (ms) of answered requests.
    by_id: dict = field(default_factory=dict)
    #: Daemon CPU seconds per window of the step.
    window_cpu_s: list = field(default_factory=list)
    #: Requests sent per op, and refusals per error code.
    ops: dict = field(default_factory=dict)
    refused_by_code: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def p(self, q: float) -> float:
        return percentile(self.latency_ms, q) if self.latency_ms else float("inf")

    def late_p99(self) -> float:
        return percentile(self.late_ms, 99) if self.late_ms else 0.0

    def valid(self, limit_ms: float) -> bool:
        return self.late_p99() <= LATE_SHARE * limit_ms

    def passed(self, limit_ms: float) -> bool:
        return self.p(99) <= limit_ms and self.backlog <= self.rate * limit_ms / 1e3


class OpenLoop:
    """Fixed-rate generator over the daemon's connections."""

    def __init__(self, daemon: Daemon, placed: list[str]):
        self.daemon = daemon
        #: Names confirmed placed, oldest first (evictions take the head).
        self.placed = deque(placed)
        self.next_id = 1000
        #: Partial response line per connection, kept across steps.
        self.inbuf = [b"" for _ in daemon.socks]
        #: Ids of requests a step already counted as timed out; their
        #: late replies are dropped, not counted a second time.
        self.timed_out: set[int] = set()

    def _encode(self, slot: Slot, rid: int) -> tuple[bytes, str, str]:
        op = slot.op
        if op == "evict" and not self.placed:
            op = "health"  # nothing confirmed placed yet: read instead
        if op == "place":
            name = f"vm{rid}"
            return _request(rid, "place_vm", name=name, memory_mib=slot.size_mib), op, name
        if op == "evict":
            name = self.placed.popleft()
            return _request(rid, "evict_vm", name=name), op, name
        if op == "attack":
            return _request(rid, "run_attack", host=slot.host), op, ""
        return _request(rid, op), op, ""

    def run_step(self, step, slots: list[Slot]) -> StepResult:
        res = StepResult(rate=step.rate, reference=step.reference)
        n = len(slots)
        base = self.next_id
        self.next_id += n
        due = [s.due_s for s in slots]
        ops = [""] * n
        names = [""] * n
        done = [False] * n
        socks = self.daemon.socks
        out = [bytearray() for _ in socks]
        inbuf = self.inbuf
        sel = selectors.DefaultSelector()
        for c, sock in enumerate(socks):
            sock.setblocking(False)
            sel.register(sock, selectors.EVENT_READ, c)
        answered = 0
        i = 0
        t0 = time.perf_counter() + 0.005
        end_s = step.duration_s
        backlog_noted = False
        next_mark = 0.0
        marks = []
        try:
            while answered < n:
                now = time.perf_counter() - t0
                if len(marks) <= step.windows and now >= next_mark:
                    marks.append(self.daemon.cpu_s())
                    next_mark += step.window_s
                first = i
                while i < n and due[i] <= now:
                    line, ops[i], names[i] = self._encode(slots[i], base + i)
                    out[i % len(socks)] += line
                    i += 1
                for c, sock in enumerate(socks):
                    if out[c]:
                        try:
                            del out[c][: sock.send(out[c])]
                        except BlockingIOError:
                            pass
                if i > first:
                    sent_t = time.perf_counter() - t0
                    res.late_ms.extend((sent_t - due[k]) * 1e3 for k in range(first, i))
                if not backlog_noted and now >= end_s:
                    res.backlog = i - answered
                    backlog_noted = True
                if now > end_s + RESPONSE_TIMEOUT_S:
                    break
                if any(out):
                    timeout = 0.0005
                elif i < n:
                    timeout = max(0.0, due[i] - (time.perf_counter() - t0))
                else:
                    timeout = 0.05
                for key, _ in sel.select(timeout):
                    c = key.data
                    chunk = key.fileobj.recv(1 << 18)
                    if not chunk:
                        raise RuntimeError("serve daemon closed the connection")
                    lines = (inbuf[c] + chunk).split(b"\n")
                    inbuf[c] = lines.pop()
                    t = time.perf_counter() - t0
                    for line in lines:
                        answered += self._settle(res, line, t, base, due, ops, names, done)
        finally:
            sel.close()
        if len(marks) <= step.windows:
            marks.append(self.daemon.cpu_s())
        res.window_cpu_s = [b - a for a, b in zip(marks, marks[1:])]
        res.sent = i
        for k in range(i):
            res.ops[ops[k]] = res.ops.get(ops[k], 0) + 1
            if not done[k]:
                res.failed += 1
                res.latency_ms.append(float("inf"))
                res.failures.append(f"request {base + k} ({ops[k]}) timed out")
                self.timed_out.add(base + k)
        return res

    def _settle(self, res, line, t, base, due, ops, names, done) -> int:
        m = _HEAD.match(line)
        if m and int(m.group(1)) in self.timed_out:
            self.timed_out.discard(int(m.group(1)))
            return 0
        k = int(m.group(1)) - base if m else -1
        if not 0 <= k < len(due) or done[k]:
            res.failed += 1
            res.failures.append(f"unmatched or malformed response: {line[:80]!r}")
            return 0
        done[k] = True
        latency = (t - due[k]) * 1e3
        if m.group(2) == b"true":
            res.ok += 1
            res.latency_ms.append(latency)
            res.by_id[base + k] = latency
            if ops[k] == "place":
                self.placed.append(names[k])
            return 1
        found = _CODE.search(line)
        code = found.group(1).decode() if found else "?"
        res.latency_ms.append(float("inf"))
        if code in _REFUSED:
            res.refused += 1
            res.refused_by_code[code] = res.refused_by_code.get(code, 0) + 1
        else:
            res.failed += 1
            res.failures.append(f"request {base + k} ({ops[k]}) failed: {line[:120]!r}")
        return 1


@dataclass
class ServeRun:
    steps: list
    #: Daemon CPU seconds per second of reference traffic.
    cpu_per_s: float
    log: list
    digest: str
    daemon_hwm_mib: float
    spans: dict | None


def drive(daemon: Daemon, inputs: ServeInputs, placed: list[str]) -> ServeRun:
    """Run the schedule: reference step, then the ladder until a step
    fails; then fetch the request log and digest."""
    limit = inputs.shape.p99_limit_ms
    loop = OpenLoop(daemon, placed)
    if daemon.dump is not None:
        os.kill(daemon.pid, signal.SIGUSR1)  # open the daemon's span window
        time.sleep(0.05)
    steps = []
    for index, step in enumerate(inputs.steps):
        slots = [s for s in inputs.slots if s.step == index]
        res = loop.run_step(step, slots)
        steps.append(res)
        if not step.reference and not (res.valid(limit) and res.passed(limit)):
            break
        time.sleep(STEP_GAP_S)
    reply = daemon.call([_request(1, "log")])[0]
    doc = json.loads(reply)
    if not doc.get("ok"):
        raise RuntimeError(f"log request failed: {reply[:200]!r}")
    hwm = vm_hwm_mib(daemon.pid)
    daemon.stop()
    spans = None
    if daemon.dump is not None:
        spans = json.loads(daemon.dump.read_text())
        daemon.dump.unlink()
    # Daemon CPU seconds per second of reference traffic: the median over
    # the reference step's windows, which all carry the same requests.  It
    # is not scaled by the host-speed kernel: timed in this process or in
    # the daemon around the step, the kernel tracked the daemon's CPU cost
    # worse than no scaling at all.
    cpu_per_s = median(steps[0].window_cpu_s) / inputs.steps[0].window_s
    return ServeRun(steps, cpu_per_s, doc["result"]["log"], doc["result"]["digest"],
                    hwm, spans)


def replay_check(config: dict, run: ServeRun) -> list[str]:
    """Replay the daemon's request log; the digest must match."""
    from repro.serve import ServiceConfig
    from repro.serve.core import replay_request_log

    replayed = replay_request_log(ServiceConfig.from_dict(config), run.log).state_digest()
    if replayed != run.digest:
        return [f"serve: replay digest {replayed[:16]} != daemon digest {run.digest[:16]}"]
    return []


def max_rate(run: ServeRun, limit_ms: float) -> tuple[float, int]:
    """Highest offered rate that passed, and the count of invalid steps."""
    best = 0.0
    invalid = 0
    for res in run.steps:
        if not res.valid(limit_ms):
            invalid += 1
        elif res.passed(limit_ms):
            best = max(best, float(res.rate))
    return best, invalid
