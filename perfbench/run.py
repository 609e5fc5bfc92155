#!/usr/bin/env python3
"""Benchmark of the `magic` binary, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Workloads (see BENCHMARK.json and perfbench/README.md):

    eval-oneshot         closed loop of `magic eval --strategy auto FILE`
    serve-read           `magic serve`, two connections of Zipf reads
    serve-mixed-durable  `magic serve --db DIR`, reads and transactions,
                         then SIGKILL and restart

The run builds the program from source, generates its inputs from the
seed, measures for the given seconds from one single-threaded load
process, and checks every answer after the timed window.  With
--trace 1 it also replays the same inputs in-process with a span around
each call into a layer, and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only if
every answer was right and no operation failed; a hang or an overrun of
the run's deadline exits 3 without a result.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH = "perfbench"
BUILD = os.path.join(BENCH, "_build")
WORK = os.path.join(BENCH, "_work")
MAGIC = os.path.join(BUILD, "default", "bin", "magic_cli.exe")
PBTOOL = os.path.join(BUILD, "default", BENCH, "pbtool.exe")
WORKLOADS = ("eval-oneshot", "serve-read", "serve-mixed-durable")
BUILD_SECONDS = 850  # a fresh checkout builds everything once
RUN_SECONDS = 170  # everything after the build, teardown included
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_BEYOND = 10  # samples a percentile needs above it
WINDOWS = 10  # serve: the timed phase is cut into this many windows

# This machine class (shared 2-core VMs) changes speed by 10-30% for
# seconds at a time.  Rates, latencies and CPU per op are therefore
# computed per window (serve: WINDOWS equal slices of the timed phase;
# eval: one pass over the query pool) and reported as the median over
# windows, so a slow burst moves a few windows rather than the result.


class Hang(Exception):
    """A phase overran its deadline: the run fails without a result."""


class TooFew(Exception):
    pass


def percentile(xs, p):
    """Nearest-rank percentile with its sample count, refused when fewer
    than MIN_BEYOND samples lie beyond it."""
    n = len(xs)
    k = max(1, -(-int(round(p * 1000)) * n // 1000))  # ceil(p * n)
    if n - k < MIN_BEYOND:
        raise TooFew("p%g of %d samples has %d beyond it (need %d)" % (p * 100, n, max(0, n - k), MIN_BEYOND))
    return sorted(xs)[k - 1], n


def median(xs):
    return statistics.median(xs)


def now():
    return time.perf_counter()


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = now() + RUN_SECONDS
        self.work = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
        self.procs = []
        self.child = None  # the running `magic eval`, if any
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []
        self.metrics = {}  # name -> (value, unit)
        self.report = []  # (name, value, unit, note) printed, not all gated
        self.phase = "start"

    def left(self, cap=None):
        rest = self.deadline - now()
        if rest <= 0:
            raise Hang("%s: run deadline passed in phase %s" % (self.workload, self.phase))
        return rest if cap is None else min(rest, cap)

    def fail(self, n, msg):
        self.failed += n
        if len(self.messages) < 12:
            self.messages.append(msg)

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = (value, unit)
        self.report.append((name, value, unit, note))

    def extra(self, name, value, unit, note=""):
        self.report.append((name, value, unit, note))

    def pct_metric(self, name, xs, p, unit, gated=True, scale=1.0):
        try:
            v, n = percentile(xs, p)
        except TooFew as e:
            if gated:
                raise
            self.extra(name, float("nan"), unit, str(e))
            return
        (self.metric if gated else self.extra)(name, v * scale, unit, "%d samples" % n)

    def cleanup(self):
        if self.child is not None:
            os.kill(self.child, signal.SIGKILL)
            os.waitpid(self.child, 0)
            self.child = None
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        self.procs = []
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------
# Build and tools
# ---------------------------------------------------------------------


def build():
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD),
        "--profile", "release", "--cache=disabled", "--display", "quiet",
        "./bin/magic_cli.exe", "./%s/pbtool.exe" % BENCH,
    ]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_SECONDS)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build did not finish in %d s" % BUILD_SECONDS)
    except FileNotFoundError:
        sys.exit("perfbench: dune not found")
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def pbtool(run, *args, cap=120):
    try:
        r = subprocess.run([PBTOOL, *args], capture_output=True, text=True, timeout=run.left(cap))
    except subprocess.TimeoutExpired:
        raise Hang("%s: pbtool %s did not finish (phase %s)" % (run.workload, args[0], run.phase))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise RuntimeError("pbtool %s failed" % args[0])
    return r.stdout


# ---------------------------------------------------------------------
# eval-oneshot
# ---------------------------------------------------------------------


def invoke_eval(run, path):
    """Run `magic eval --strategy auto PATH`: wall time from spawn to
    exit, child CPU seconds, peak RSS in kB, exit status, stdout."""
    r, w = os.pipe()
    t0 = now()
    pid = os.posix_spawn(
        MAGIC, [MAGIC, "eval", "--strategy", "auto", path], os.environ,
        file_actions=[(os.POSIX_SPAWN_DUP2, w, 1), (os.POSIX_SPAWN_CLOSE, r), (os.POSIX_SPAWN_CLOSE, w)],
    )
    os.close(w)
    run.child = pid
    chunks = []
    sel = selectors.DefaultSelector()
    sel.register(r, selectors.EVENT_READ)
    try:
        while True:
            if not sel.select(run.left(60)):
                raise Hang("%s: magic eval %s did not finish (phase %s)" % (run.workload, path, run.phase))
            data = os.read(r, 1 << 16)
            if not data:
                break
            chunks.append(data)
    finally:
        sel.close()
        os.close(r)
    _, status, ru = os.wait4(pid, 0)
    run.child = None
    wall = now() - t0
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, status, b"".join(chunks)


def eval_workload(run):
    inputs = os.path.join(run.work, "inputs")
    run.phase = "generate"
    pbtool(run, "gen", run.workload, str(run.seed), inputs)
    with open(os.path.join(inputs, "order.txt")) as f:
        order = f.read().split()
    outputs = {}  # (file, digest) -> [count, text]

    def once(name):
        wall, cpu, rss, status, out = invoke_eval(run, os.path.join(inputs, name))
        run.attempted += 1
        if status != 0:
            run.fail(1, "magic eval %s exited with status %d" % (name, status))
        key = (name, hashlib.sha1(out).hexdigest())
        outputs.setdefault(key, [0, out])[0] += 1
        return wall, cpu, rss

    run.phase = "warm-up"
    for name in order:
        once(name)
    run.phase = "set-up"
    setup = [once("warmup.dl")[0] for _ in range(5)]
    run.phase = "timed"
    # one window per pass over the pool: (latencies, CPU, wall)
    passes, peak = [], 0
    t_end = now() + run.seconds
    while now() < t_end:
        t0, lats, cpu = now(), [], 0.0
        for name in order:
            wall, c, rss = once(name)
            lats.append(wall)
            cpu += c
            peak = max(peak, rss)
            if now() >= t_end:
                break
        passes.append((lats, cpu, now() - t0))
    lat = [x for w in passes for x in w[0]]
    elapsed = sum(w[2] for w in passes)

    run.phase = "check"
    listing = os.path.join(run.work, "outputs.txt")
    with open(listing, "w") as f:
        for i, ((name, digest), (count, text)) in enumerate(sorted(outputs.items())):
            path = os.path.join(run.work, "out-%d.txt" % i)
            with open(path, "wb") as o:
                o.write(text)
            f.write("%s\t%d\t%s\n" % (name, count, path))
    verdict = json.loads(pbtool(run, "check-eval", str(run.seed), listing))
    apply_verdict(run, verdict)

    run.phase = "metrics"
    run.metric("setup_s", median(setup), "s", "median of %d set-up invocations" % len(setup))
    full = [w for w in passes if len(w[0]) == len(order)]
    note = "median of %d passes over the pool" % len(full)
    run.metric("ops_per_s", median([len(w[0]) / w[2] for w in full]), "ops/s", note)
    run.metric("op_ms_p50", 1e3 * median([percentile(w[0], 0.5)[0] for w in full]), "ms", note)
    # a pass has too few queries for a p90 of its own
    run.pct_metric("op_ms_p90", lat, 0.9, "ms", scale=1e3)
    run.metric("cpu_ms_per_op", 1e3 * median([w[1] / len(w[0]) for w in full]), "ms", note + ", child CPU")
    run.metric("peak_rss_mb", peak / 1024.0, "MB", "largest child peak RSS")
    for f in sorted({n.rsplit("_", 1)[0] for n in order}):
        mine = [x for w in full for n, x in zip(order, w[0]) if n.startswith(f + "_")]
        run.pct_metric("eval_ms_p50." + f, mine, 0.5, "ms", gated=False, scale=1e3)
    run.extra("eval_qps", len(lat) / elapsed, "queries/s", "%d queries in %.2f s" % (len(lat), elapsed))
    run.pct_metric("eval_ms_p50", lat, 0.5, "ms", gated=False, scale=1e3)
    for name in ("server.wait_ms_p50", "server.wait_ms_p99", "server.cache_hit_rate", "server.seed_installs",
                 "server.cache_repairs", "server.cache_evictions", "server.partial_invalidations"):
        run.layer[name] = (0.0, LAYER_UNITS[name])


def apply_verdict(run, verdict):
    run.wrong += verdict["wrong"] + verdict["lost"]
    if verdict["wrong"]:
        run.fail(verdict["wrong"], "%d wrong answers" % verdict["wrong"])
    if verdict["lost"]:
        run.fail(verdict["lost"], "%d acknowledged writes missing after restart" % verdict["lost"])
    for m in verdict["messages"]:
        run.fail(0, "check: " + m)
    run.extra("checked_answers", verdict["checked"], "count")


# ---------------------------------------------------------------------
# serve-*
# ---------------------------------------------------------------------

SOCKET = "d.sock"


class Daemon:
    """One `magic serve` process, spawned in the run's work directory."""

    def __init__(self, run, db=None):
        self.run = run
        args = [os.path.abspath(MAGIC), "serve", "program.dl", "--socket", SOCKET, "--strategy", "gms"]
        if db:
            args += ["--db", db]
        self.path = os.path.join(run.work, SOCKET)
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.log = open(os.path.join(run.work, "daemon.log"), "ab")
        self.t0 = now()
        self.proc = subprocess.Popen(args, cwd=run.work, stdout=self.log, stderr=self.log)
        run.procs.append(self.proc)

    def connect(self):
        """Connect once the socket accepts: the pooled client's connection."""
        give_up = now() + self.run.left(60)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with status %d during %s" % (self.proc.returncode, self.run.phase))
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.path)
                return Conn(s)
            except OSError:
                s.close()
                if now() > give_up:
                    raise Hang("%s: daemon socket not accepting after 60 s (phase %s)" % (self.run.workload, self.run.phase))
                time.sleep(0.002)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=self.run.left(30))
        self.log.close()

    def cpu_ticks(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def peak_rss_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM for the daemon")


class Conn:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def call(self, run, line):
        """One request, one reply line (outside the closed loop)."""
        self.sock.sendall(line + b"\n")
        self.sock.settimeout(run.left(60))
        try:
            while b"\n" not in self.buf:
                data = self.sock.recv(1 << 16)
                if not data:
                    raise ConnectionError("daemon closed the connection")
                self.buf += data
        except socket.timeout:
            raise Hang("%s: no reply within the deadline (phase %s)" % (run.workload, run.phase))
        finally:
            self.sock.settimeout(None)
        reply, self.buf = self.buf.split(b"\n", 1)
        return reply

    def close(self):
        self.sock.close()


def closed_loop(run, conns, streams, start, t_end, out, tick=None):
    """Each connection sends its next request once the previous reply
    arrived, from stream position [start] until [t_end] (None: to the
    end of the stream).  Appends (conn, idx, done_at, latency_s, reply)
    to out, and calls tick(now) after every reply."""
    sel = selectors.DefaultSelector()
    state = {}

    def send(c):
        idx = state[c][0]
        if idx >= len(streams[c]) or (t_end is not None and now() >= t_end):
            state[c][1] = None
            return
        state[c][1] = now()
        try:
            conns[c].sock.sendall(streams[c][idx] + b"\n")
        except OSError as e:
            run.fail(1, "conn %d: send failed in %s: %s" % (c, run.phase, e))
            state[c][1] = None
            state[c][0] = len(streams[c])

    for c, conn in enumerate(conns):
        state[c] = [start, None]
        sel.register(conn.sock, selectors.EVENT_READ, c)
        send(c)
    while any(s[1] is not None for s in state.values()):
        events = sel.select(run.left(60))
        if not events:
            pending = sum(1 for s in state.values() if s[1] is not None)
            run.fail(pending, "%d requests unanswered at the deadline" % pending)
            raise Hang("%s: no reply for 60 s (phase %s)" % (run.workload, run.phase))
        for key, _ in events:
            c = key.data
            conn = conns[c]
            try:
                data = conn.sock.recv(1 << 16)
            except OSError:
                data = b""
            if not data:
                if state[c][1] is not None:
                    run.fail(1, "conn %d dropped with a request in flight (%s)" % (c, run.phase))
                state[c][1] = None
                sel.unregister(conn.sock)
                continue
            conn.buf += data
            while b"\n" in conn.buf and state[c][1] is not None:
                reply, conn.buf = conn.buf.split(b"\n", 1)
                t = now()
                out.append((c, state[c][0], t, t - state[c][1], reply))
                state[c][0] += 1
                send(c)
                if tick:
                    tick(t)
    sel.close()


def parse_replies(run, replies, records):
    """Turn raw reply lines into checker records and count failures.
    Returns (done_at, latency_s, kind, wait_s) per answered request;
    wait is the latency minus the daemon-reported time_s."""
    ok = []
    for c, idx, done, lat, raw in replies:
        run.attempted += 1
        try:
            r = json.loads(raw)
        except ValueError:
            run.fail(1, "conn %d request %d: unparsable reply" % (c, idx))
            continue
        if not r.get("ok"):
            run.fail(1, "conn %d request %d: %s: %s" % (c, idx, r.get("code"), r.get("message")))
            continue
        kind = r.get("kind")
        if kind == "answers":
            rows = " ".join(",".join(row) for row in r["answers"])
            records.append("R %d %d %d %s" % (c, idx, r["epoch"], rows))
        elif kind == "committed":
            records.append("T %d %d %d" % (c, idx, r["epoch"]))
        else:
            run.fail(1, "conn %d request %d: unexpected reply kind %s" % (c, idx, kind))
            continue
        ok.append((done, lat, kind, lat - float(r["time_s"])))
    return ok


def window_metrics(run, slices, unit_note):
    """slices: per window (latencies_s, cpu_s, wall_s).  Reports the
    median over windows of the rate, p50, p90 and CPU per op."""
    slices = [w for w in slices if w[0]]
    n = sum(len(w[0]) for w in slices)
    note = "median of %d %s, %d ops" % (len(slices), unit_note, n)
    run.metric("ops_per_s", median([len(w[0]) / w[2] for w in slices]), "ops/s", note)
    for name, p in (("op_ms_p50", 0.5), ("op_ms_p90", 0.9)):
        run.metric(name, 1e3 * median([percentile(w[0], p)[0] for w in slices]), "ms", note)
    run.metric("cpu_ms_per_op", 1e3 * median([w[1] / len(w[0]) for w in slices]), "ms", note)


def setup_daemon(run, db_for):
    """SETUPS spawns, each timed from spawn to the reply of its first
    request; all but the last are killed.  Returns the last daemon, its
    connection and the samples."""
    samples = []
    for i in range(SETUPS):
        d = Daemon(run, db_for(i))
        conn = d.connect()
        stats = conn.call(run, b'{"op": "stats"}')
        samples.append(now() - d.t0)
        run.attempted += 1
        if not json.loads(stats).get("ok"):
            run.fail(1, "set-up stats request failed")
        if i < SETUPS - 1:
            conn.close()
            d.kill()
    return d, conn, samples


def serve_workload(run):
    durable = run.workload == "serve-mixed-durable"
    inputs = run.work
    run.phase = "generate"
    pbtool(run, "gen", run.workload, str(run.seed), inputs)
    streams = []
    for c in range(2):
        with open(os.path.join(inputs, "conn%d.req" % c), "rb") as f:
            streams.append(f.read().split(b"\n")[:-1])
    with open(os.path.join(inputs, "meta.txt")) as f:
        warm = int(f.read().split()[1])

    run.phase = "set-up"
    db = "db" if durable else None
    daemon, conn0, setup = setup_daemon(run, lambda i: ("db-setup-%d" % i if i < SETUPS - 1 else db) if durable else None)
    conn1 = daemon.connect()
    conns = [conn0, conn1]

    run.phase = "warm-up"
    warm_replies = []
    closed_loop(run, conns, [s[:warm] for s in streams], 0, None, warm_replies)
    run.phase = "timed"
    timed_replies = []
    t0 = now()
    width = run.seconds / WINDOWS
    bounds = [(t0, daemon.cpu_ticks())]  # (time, daemon CPU ticks) at each window edge

    def tick(t):
        if t >= bounds[0][0] + len(bounds) * width and len(bounds) < WINDOWS:
            bounds.append((t, daemon.cpu_ticks()))

    closed_loop(run, conns, streams, warm, t0 + run.seconds, timed_replies, tick)
    bounds.append((now(), daemon.cpu_ticks()))
    if any(idx == len(streams[c]) - 1 for c, idx, _, _, _ in timed_replies):
        run.extra("stream_exhausted", 1, "flag", "the timed phase ran out of generated requests")

    run.phase = "stats"
    stats = json.loads(conn0.call(run, b'{"op": "stats"}'))["stats"]
    run.attempted += 1
    peak_kb = daemon.peak_rss_kb()

    records = []
    parse_replies(run, warm_replies, records)
    timed = parse_replies(run, timed_replies, records)

    if durable:
        run.phase = "crash-restart"
        daemon.kill()
        conn0.close()
        conn1.close()
        recover = []
        for i in range(SETUPS):
            d = Daemon(run, db)
            c = d.connect()
            reply = json.loads(c.call(run, b'{"op": "stats"}'))
            recover.append(now() - d.t0)
            run.attempted += 1
            if not reply.get("ok"):
                run.fail(1, "stats after restart failed")
            if i < SETUPS - 1:
                c.close()
                d.kill()
        run.phase = "durability-probe"
        for k in written_keys(streams, records):
            reply = json.loads(c.call(run, b'{"op": "query", "atom": "tc(k_%d, Ans)"}' % k))
            run.attempted += 1
            if not reply.get("ok"):
                run.fail(1, "query after restart failed: %s" % reply.get("message"))
                continue
            records.append("D %d %s" % (k, " ".join(",".join(row) for row in reply["answers"])))
        c.close()
        d.kill()
        run.extra("recover_s", median(recover), "s", "median of %d SIGKILL restarts" % len(recover))
    else:
        run.phase = "teardown"
        reply = conn0.call(run, b'{"op": "shutdown"}')
        run.attempted += 1
        conn0.close()
        conn1.close()
        try:
            daemon.proc.wait(timeout=run.left(20))
            daemon.log.close()
        except subprocess.TimeoutExpired:
            run.fail(1, "serve-read: daemon did not exit within 20 s of an acknowledged shutdown (phase teardown)")
            daemon.kill()
        if not json.loads(reply).get("ok"):
            run.fail(1, "shutdown request failed")

    run.phase = "check"
    path = os.path.join(run.work, "records.txt")
    with open(path, "w") as f:
        f.write("\n".join(records) + "\n")
    apply_verdict(run, json.loads(pbtool(run, "check-serve", run.workload, str(run.seed), path)))

    run.phase = "metrics"
    run.metric("setup_s", median(setup), "s", "median of %d daemon set-ups" % len(setup))
    tck = os.sysconf("SC_CLK_TCK")
    slices = []
    for (a, ca), (b, cb) in zip(bounds, bounds[1:]):
        lats = [lat for done, lat, _, _ in timed if a <= done < b or (b == bounds[-1][0] and done >= b)]
        slices.append((lats, (cb - ca) / tck, b - a))
    window_metrics(run, slices, "%.1f s windows" % width)
    run.metric("peak_rss_mb", peak_kb / 1024.0, "MB", "daemon VmHWM")
    reads = [lat for _, lat, kind, _ in timed if kind == "answers"]
    commits = [lat for _, lat, kind, _ in timed if kind == "committed"]
    waits = [w for _, _, _, w in timed]
    run.pct_metric("read_ms_p50", reads, 0.5, "ms", gated=False, scale=1e3)
    run.pct_metric("read_ms_p99", reads, 0.99, "ms", gated=False, scale=1e3)
    if durable:
        run.pct_metric("commit_ms_p50", commits, 0.5, "ms", gated=False, scale=1e3)
        run.pct_metric("commit_ms_p99", commits, 0.99, "ms", gated=False, scale=1e3)

    for name, p in (("server.wait_ms_p50", 0.5), ("server.wait_ms_p99", 0.99)):
        v, _ = percentile(waits, p)
        run.layer[name] = (v * 1e3, "ms")
    for name in ("cache_hit_rate", "seed_installs", "cache_repairs", "cache_evictions", "partial_invalidations"):
        run.layer["server." + name] = (float(stats[name]), LAYER_UNITS["server." + name])


def written_keys(streams, records):
    """Keys whose answers an acknowledged transaction changed, plus the
    first ten keys as a control."""
    acked = {(int(r.split()[1]), int(r.split()[2])) for r in records if r.startswith("T ")}
    keys = set(range(10))
    for c, idx in acked:
        line = streams[c][idx]
        start = line.index(b"edge(k_") + len(b"edge(k_")
        keys.add(int(line[start:line.index(b",", start)]))
    return sorted(keys)


LAYER_UNITS = {
    "server.wait_ms_p50": "ms",
    "server.wait_ms_p99": "ms",
    "server.cache_hit_rate": "ratio",
    "server.seed_installs": "count",
    "server.cache_repairs": "count",
    "server.cache_evictions": "count",
    "server.partial_invalidations": "count",
}


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------


def layout_ok():
    need = ["dune-project", os.path.join("bin", "magic_cli.ml"), os.path.join("lib", "server", "daemon.ml"),
            os.path.join(BENCH, "pbtool.ml"), "BENCHMARK.json"]
    missing = [p for p in need if not os.path.exists(p)]
    if missing:
        sys.stderr.write("perfbench: run from the repository root; missing %s\n" % ", ".join(missing))
        return False
    return True


def print_report(run):
    print("workload %s, seed %d, %d s" % (run.workload, run.seed, run.seconds))
    for name, value, unit, note in run.report:
        text = "%.6g" % value if isinstance(value, float) else str(value)
        print("  %-22s %12s %-8s %s" % (name, text, unit, note))
    rate = run.failed / run.attempted if run.attempted else 0.0
    print("  %-22s %12.6g %-8s %d failed of %d attempted" % ("error_rate", rate, "ratio", run.failed, run.attempted))
    for m in run.messages:
        print("  ! " + m)


def result_line(run, names_units, values):
    metrics = {}
    for name, unit in names_units:
        if name not in values:
            raise RuntimeError("metric %s was not measured" % name)
        v, u = values[name]
        if u != unit:
            raise RuntimeError("metric %s measured in %s, BENCHMARK.json says %s" % (name, u, unit))
        metrics[name] = {"value": v, "unit": unit}
    correct = run.wrong == 0 and run.failed == 0
    return json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not layout_ok():
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    run = Run(args.workload, args.seed, args.seconds)
    run.layer = {}
    os.makedirs(run.work, exist_ok=True)
    def on_alarm(*_):
        raise Hang("%s: run deadline passed in phase %s" % (run.workload, run.phase))

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_SECONDS + 5)
    try:
        if args.workload == "eval-oneshot":
            eval_workload(run)
        else:
            serve_workload(run)
        if args.trace:
            run.phase = "traced replay"
            spans = os.path.join(WORK, "spans")
            os.makedirs(spans, exist_ok=True)
            span_file = os.path.join(spans, "%s-seed%d.json" % (run.workload, run.seed))
            replay = json.loads(pbtool(run, "replay", run.workload, str(run.seed), run.work, span_file, cap=150))
            for name, m in replay["metrics"].items():
                run.layer[name] = (m["value"], m["unit"])
            for n in replay["notes"]:
                run.messages.append("replay: " + n)
            run.extra("span_file", span_file, "")
            run.extra("trace_overhead", replay["metrics"]["trace.overhead"]["value"], "%", "spans on vs off")
            run.extra("span_coverage", replay["metrics"]["trace.coverage"]["value"], "%", "of the replay's wall time")
    except Hang as e:
        signal.alarm(0)
        sys.stderr.write("perfbench: %s\n" % e)
        run.cleanup()
        return 3
    except Exception as e:  # a crashed phase is a failed run, never a result
        signal.alarm(0)
        sys.stderr.write("perfbench: %s failed in phase %s: %r\n" % (run.workload, run.phase, e))
        run.cleanup()
        return 1
    signal.alarm(0)
    run.cleanup()
    print_report(run)
    if args.trace:
        line = result_line(run, [(m["name"], m["unit"]) for m in spec["per_layer"]], run.layer)
    else:
        line = result_line(run, [(m["name"], m["unit"]) for m in spec["end_to_end"]], run.metrics)
    print(line)
    return 0 if run.wrong == 0 and run.failed == 0 else 1


# ---------------------------------------------------------------------
# The benchmark's own tests
# ---------------------------------------------------------------------


def selftest():
    build()
    failures = 0

    def expect(name, ok):
        nonlocal failures
        print("%s %s" % ("ok  " if ok else "FAIL", name))
        failures += 0 if ok else 1

    def refused(xs, p):
        try:
            percentile(xs, p)
            return False
        except TooFew:
            return True

    expect("percentile: p99 of 999 samples is refused", refused(list(range(999)), 0.99))
    expect("percentile: p99 of 1000 samples reports its sample count", percentile(list(range(1000)), 0.99)[1] == 1000)
    expect("percentile: p50 of 19 samples is refused", refused(list(range(19)), 0.5))
    expect("percentile: p50 of 1..21 is 11", percentile(list(range(1, 22)), 0.5)[0] == 11)
    expect("percentile: p90 of 1..100 is 90", percentile(list(range(1, 101)), 0.9)[0] == 90)
    tmp = os.path.join(WORK, "selftest")
    r = subprocess.run([PBTOOL, "selftest", tmp], timeout=300)
    shutil.rmtree(tmp, ignore_errors=True)
    expect("pbtool selftest", r.returncode == 0)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
