#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `gps serve`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload session-smart --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

It builds the program with dune, generates the workload's inputs from the
seed, starts a real `gps serve` over TCP (always with `--domains 1`) and
drives it from this one client process in a closed loop. With `--trace 0`
it reports the end-to-end metrics; with `--trace 1` it re-runs the
workload with the server's span trace on, replays the same inputs in
process (perfbench/replay.ml) and reports the per-layer metrics. The last
line of stdout is one JSON object; everything else is a human report.
See perfbench/README.md for the design.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import re
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import zlib

ROOT = os.getcwd()
GPS = os.path.join(ROOT, "_build", "default", "bin", "gps_cli.exe")
REPLAY = os.path.join(ROOT, "_build", "default", "perfbench", "replay.exe")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("session-smart", "wire-warm", "wire-cold")
SETUP_SPAWNS = 11  # setup_s is the median over this many server starts
REPLY_TIMEOUT_S = 120
TAIL_BLOCK = 400  # requests per tail block; p95 has twenty samples beyond it
# tail = the highest of these with >= 10 samples beyond it; above p95,
# sub-millisecond requests on a small shared host measure its stalls
LADDER = (0.95, 0.9, 0.5)

# Workload sizes (README.md says why).
SESSION_GRAPHS, SESSION_NODES = 21, 1000
WARM_NODES, WARM_MIXES, WARM_SUBSEEDS, WARM_CONNS = 400, "smoke,interactive", 4, 2
COLD_NODES, COLD_EDGES, COLD_MIXES, COLD_CACHE = 80000, 320000, 2, 16


class Abort(Exception):
    """The benchmark cannot produce a result (build or set-up failed)."""


def log(msg):
    print(msg, flush=True)


def sub_seed(seed, i):
    return (seed * 1000003 + i * 7919) % (1 << 30)


def nearest_rank(values, p):
    v = sorted(values)
    return v[max(0, math.ceil(p * len(v)) - 1)]


def tail_rank(n):
    for p in LADDER:
        if n - math.ceil(p * n) >= 10:
            return p
    return None


def run_cmd(args):
    r = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise Abort("%s failed (%d): %s" % (" ".join(args[:3]), r.returncode, r.stderr.decode()[-2000:]))
    return r.stdout


# ---------------------------------------------------------------- build


def build():
    for f in ("dune-project", os.path.join("bin", "gps_cli.ml"), os.path.join("lib", "server", "server.ml")):
        if not os.path.exists(os.path.join(ROOT, f)):
            raise Abort("not a gps source checkout (missing %s)" % f)
    if shutil.which("dune") is None:
        raise Abort("dune not found")
    run_cmd(["dune", "build", "--root", ".", "bin/gps_cli.exe", "perfbench/replay.exe"])


def host_facts():
    def out(args):
        try:
            return subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=20).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    return {
        "nproc": os.cpu_count(),
        "commit": out(["git", "rev-parse", "--short", "HEAD"]) or "n/a (not a git checkout)",
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or out(["ocaml", "-vnum"]) or "n/a",
    }


def host_probe():
    """Seconds for a fixed CPU loop: diagnostic only, never scales a metric."""
    t = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t


# ---------------------------------------------------------------- server


class Server:
    """One `gps serve --port 0` process; the banner on stderr gives the port."""

    def __init__(self, flags, tag):
        self.tag = tag
        self.stderr_lines = []
        self.ready = threading.Event()
        self.port = None
        args = [GPS, "serve", "--port", "0", "--domains", "1"] + flags
        self.proc = subprocess.Popen(
            args, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        self.reader = threading.Thread(target=self._read_stderr, daemon=True)
        self.reader.start()
        if not self.ready.wait(60) or self.port is None:
            self.stop()
            raise Abort("server %s did not start: %s" % (tag, "".join(self.stderr_lines)[-2000:]))

    def _read_stderr(self):
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace")
            self.stderr_lines.append(line)
            m = re.search(r"serving on \S+:(\d+)", line)
            if m and self.port is None:
                self.port = int(m.group(1))
                self.ready.set()
        self.ready.set()

    def proc_stat(self):
        """(minor faults, major faults) of the server so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[7]), int(fields[9])

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Abort("no VmHWM for server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(10)
        self.proc.stderr.close()


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.scan = 0

    def send(self, line):
        self.sock.sendall(line)

    def take_line(self):
        i = self.buf.find(b"\n", self.scan)
        if i < 0:
            self.scan = len(self.buf)
            return None
        line = bytes(self.buf[:i])
        del self.buf[: i + 1]
        self.scan = 0
        return line

    def fill(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise Abort("server closed the connection")
        self.buf += chunk

    def call(self, req):
        self.send(encode(req))
        while True:
            line = self.take_line()
            if line is not None:
                return json.loads(line)
            self.fill()

    def close(self):
        self.sock.close()


def encode(req):
    return (json.dumps(req, separators=(",", ":")) + "\n").encode()


def drive(conns, scripts, samples, spans=None):
    """Closed loop: each connection has one request in flight; a script is a
    generator yielding (kind, request bytes) and receiving the response line."""
    sel = selectors.DefaultSelector()
    pending = {}
    clock = time.monotonic_ns

    def send_next(c, gen, item):
        kind, line = item
        pending[c] = (gen, kind, clock())
        c.send(line)

    for c, gen in zip(conns, scripts):
        try:
            send_next(c, gen, next(gen))
            sel.register(c.sock, selectors.EVENT_READ, c)
        except StopIteration:
            pass
    while pending:
        ready = sel.select(REPLY_TIMEOUT_S)
        if not ready:
            raise Abort("no reply within %d s" % REPLY_TIMEOUT_S)
        for key, _ in ready:
            c = key.data
            c.fill()
            line = c.take_line()
            if line is None:
                continue
            t1 = clock()
            gen, kind, t0 = pending.pop(c)
            samples.append((kind, t1 - t0, len(line) + 1))
            if spans is not None:
                spans.append((t0, t1))
            try:
                send_next(c, gen, gen.send(line))
            except StopIteration:
                sel.unregister(c.sock)
    sel.close()


class Checks:
    """Failures against attempts, plus named invariant violations."""

    def __init__(self):
        self.failed = 0
        self.reasons = []

    def fail(self, why):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(why)


def counters(conns):
    """The servers' work counters, summed."""
    total = {}
    for c in conns:
        for k, v in c.call({"op": "metrics", "timings": False})["metrics"]["trace"]["counters"].items():
            total[k] = total.get(k, 0) + v
    return total


def delta(after, before):
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


# Work counts harvested per pass from the server's metrics op.
WORK_COUNTS = (
    "qcache.hits", "qcache.misses", "qcache.evictions", "qcache.invalidations",
    "eval.runs", "eval.product_states", "eval.frontier_visits",
    "witness.searches", "witness.expansions",
    "rpni.merge_attempts", "rpni.merge_accepts", "rpni.merge_rejects",
    "session.relearns", "session.nodes_pruned", "session.steps", "learner.runs",
)


def references(file, queries):
    """{query: {n, md5}} from an in-process Eval of each query on the file."""
    if not queries:
        return {}
    out = json.loads(run_cmd([REPLAY, "refs", file] + list(queries)))
    return {e["query"]: e for e in out["entries"]}


def names_digest(names):
    names = sorted(names)
    return len(names), hashlib.md5("\n".join(names).encode()).hexdigest()


# ---------------------------------------------------------------- workloads
#
# A workload names its servers (flags(i) for server i), checks a server's
# first answer, and gives per pass a list of phases; a phase is a list of
# (server index, script) run concurrently, one connection each.


def goal_regex(query):
    """The goal's language over words spelled 'l1;l2;...;' (independent of the
    program under test: Q1-Q7 use labels, '.', '+', '*' and parentheses)."""
    out = []
    for tok in re.findall(r"[A-Za-z0-9_]+|[().+*]", query):
        out.append({"(": "(?:", ")": ")", "+": "|", "*": "*", ".": ""}.get(tok, "(?:%s;)" % re.escape(tok)))
    return re.compile("".join(out))


def in_goal(rx, word):
    return rx.fullmatch("".join(l + ";" for l in (word.split(".") if word else []))) is not None


class SessionSmart:
    """The paper's loop over the wire with a perfect simulated user.

    Graph i (of SESSION_GRAPHS) runs goal Q(i mod 7 + 1) and is served by
    server i mod 7, so each server runs one goal on three graphs. One
    session per graph averages the graph-to-graph variation of a seed over
    21 instances, and rss_mb, the median over the servers, is not decided
    by one session whose learner blows up."""

    name = "session-smart"
    conns = 1
    n_servers = 7

    def __init__(self, seed, work):
        self.work = work
        self.files = []
        for i in range(SESSION_GRAPHS):
            f = os.path.join(work, "city%d.g" % i)
            run_cmd([GPS, "generate", "-k", "city", "-n", str(SESSION_NODES), "-s", str(sub_seed(seed, i)), "-o", f])
            self.files.append(f)
        graphs = json.loads(run_cmd([REPLAY, "goals"] + self.files))["graphs"]
        self.goals = [g["goals"][i % self.n_servers] for i, g in enumerate(graphs)]
        self.state_n = 0
        self.live = []  # (server, session id) of the last pass on these servers
        self.digests, self.answers, self.outcomes = [], [], []

    def served_by(self, j):
        return range(j, len(self.files), self.n_servers)

    def flags(self, j):
        self.state_n += 1
        state = os.path.join(self.work, "state%d" % self.state_n)
        load = ",".join("g%d=%s" % (i, self.files[i]) for i in self.served_by(j))
        return ["--load", load, "--state-dir", state, "--fsync", "always"]

    def first_answer(self, j, conn):
        goal = self.goals[j]
        r = conn.call({"op": "query", "graph": "g%d" % j, "query": goal["query"]})
        return r.get("ok") and sorted(r["nodes"]) == sorted(goal["witness"])

    def begin(self, ctls, checks):
        self.live = []

    def before_pass(self, ctls):
        # the last pass's sessions are stopped (untimed, like the reload) so
        # that memory does not grow with the number of passes
        for j, sid in self.live:
            if not ctls[j].call({"op": "session-stop", "session": sid}).get("ok"):
                raise Abort("stopping session %d failed" % sid)
        self.live = []
        # a fresh catalog version per pass: every pass evaluates its proposals
        # cold, so all passes do identical work
        for j, c in enumerate(ctls):
            for i in self.served_by(j):
                r = c.call({"op": "load", "name": "g%d" % i, "path": self.files[i]})
                if not r.get("ok"):
                    raise Abort("reload failed: %r" % r)

    def phases(self, checks, record):
        self.digest = hashlib.sha256()
        self.pass_answers = []
        self.pass_outcomes = []
        self.proposals = [{} for _ in self.files]
        return [[(i % self.n_servers, self._script(i, checks, record))] for i in range(len(self.files))]

    def _script(self, i, checks, record):
        """One session on graph i. No stop is sent within the timed pass:
        about half of the requests are sub-millisecond (label yes, zoom,
        accept), and timed stops would put the median right on the edge
        between those and the millisecond answers."""
        goal = self.goals[i]
        witness = goal["witness"]
        rx = goal_regex(goal["query"])
        where = "city%d/%s" % (i, goal["name"])

        def step(kind, req):
            line = encode(req)
            if record is not None:
                record[0].append(line)
            resp = yield (kind, line)
            if record is not None:
                record[1].append(resp)
            # session ids differ between passes; the rest must not
            self.digest.update(re.sub(rb'"session":\d+', b'"session":_', resp) + b"\n")
            r = json.loads(resp)
            if r.get("ask") in ("propose", "finished"):
                seen = self.proposals[i].setdefault(r["query"], names_digest(r["selects"]))
                if seen != names_digest(r["selects"]):
                    checks.fail("%s: two selections for %s" % (where, r["query"]))
            return r

        r = yield from step("start", {"op": "session-start", "graph": "g%d" % i, "strategy": "smart", "seed": 1})
        if not r.get("ok"):
            checks.fail("%s: start: %s" % (where, r))
            return
        sid, answers = r["session"], 0
        self.live.append((i % self.n_servers, sid))
        while r.get("ok") and r.get("ask") != "finished":
            ask = r["ask"]
            if ask == "label":
                node = r["node"]
                if node in witness and witness[node] > r["radius"] and r["frontier"]:
                    kind, req = "zoom", {"op": "session-zoom", "session": sid}
                else:
                    pos = node in witness
                    kind = "label_pos" if pos else "label_neg"
                    req = {"op": "session-label", "session": sid, "answer": "yes" if pos else "no"}
                answers += 1
            elif ask == "path":
                ok = [w for w in r["words"] if in_goal(rx, w)]
                kind, req = "validate", {"op": "session-validate", "session": sid}
                if ok:
                    best = min(ok, key=lambda w: len(w.split(".")) if w else 0)
                    req["path"] = best.split(".") if best else []
                answers += 1
            else:
                accept = set(r["selects"]) == set(witness)
                kind = "accept" if accept else "refine"
                req = {"op": "session-propose", "session": sid, "accept": accept}
            r = yield from step(kind, req)
        if not r.get("ok"):
            checks.fail("%s: %s" % (where, r.get("error")))
        elif r["reason"] == "satisfied" and set(r["selects"]) != set(witness):
            checks.fail("%s: satisfied without the goal's selection" % where)
        else:
            self.pass_outcomes.append((where, r["reason"], answers))
        self.pass_answers.append(answers)

    def after_pass(self, checks, work):
        # every proposal's selection equals an in-process Eval of its query
        for i, f in enumerate(self.files):
            refs = references(f, self.proposals[i])
            for q, (n, md5) in self.proposals[i].items():
                if (refs[q]["n"], refs[q]["md5"]) != (n, md5):
                    checks.fail("city%d: proposal %s selects the wrong nodes" % (i, q))
        self.digests.append(self.digest.hexdigest())
        self.answers.append(self.pass_answers)
        self.outcomes.append(self.pass_outcomes)
        if len(set(self.digests)) > 1 or any(a != self.answers[0] for a in self.answers):
            checks.fail("session responses differ between passes")

    def summary(self):
        answers = self.answers[0]
        return {
            "questions": sum(answers) / len(answers),
            "sessions": len(answers),
            "unsatisfied": [o for o in self.outcomes[0] if o[1] != "satisfied"],
            "digest": self.digests[0][:16],
        }


class WireWarm:
    """PathForge mixes on a heap graph, every timed request a cache hit."""

    name = "wire-warm"
    n_servers = 1
    graph = "warm"
    conns = WARM_CONNS

    def __init__(self, seed, work):
        self.file = os.path.join(work, "warm.g")
        run_cmd([GPS, "generate", "-k", "city", "-n", str(WARM_NODES), "-s", str(sub_seed(seed, 0)), "-o", self.file])
        self.entries = []
        for i in range(WARM_SUBSEEDS):
            out = run_cmd([REPLAY, "mix", self.file, str(sub_seed(seed, 100 + i)), WARM_MIXES])
            self.entries += json.loads(out)["entries"]
        self.good = set()
        self.timed = False

    def flags(self, i):
        return ["--load", "%s=%s" % (self.graph, self.file)]

    def first_answer(self, i, conn):
        e = self.entries[0]
        r = conn.call({"op": "query", "graph": self.graph, "query": e["query"]})
        return r.get("ok") and names_digest(r["nodes"]) == (e["n"], e["md5"])

    def begin(self, ctls, checks):
        """An untimed warm-up pass fills the cache."""
        self.timed = False
        drive(ctls[:1], [self._script(self.entries, checks, None)], [])
        self.timed = True

    def before_pass(self, ctls):
        pass

    def phases(self, checks, record):
        return [[(0, self._script(self.entries[k :: self.conns], checks, record)) for k in range(self.conns)]]

    expected_cache = "hit"

    def _script(self, entries, checks, record):
        for e in entries:
            line = e.setdefault("line", encode({"op": "query", "graph": self.graph, "query": e["query"]}))
            if record is not None:
                record[0].append(line)
            resp = yield ("query", line)
            if record is not None:
                record[1].append(resp)
            # a response byte-identical to one already verified is not parsed again
            key = (e["query"], zlib.crc32(resp), len(resp))
            if key in self.good:
                continue
            r = json.loads(resp)
            if not r.get("ok") or names_digest(r["nodes"]) != (e["n"], e["md5"]):
                checks.fail("%s: wrong answer" % e["query"])
            elif self.timed and r["cache"] != self.expected_cache:
                checks.fail("%s: cache %s in the timed phase" % (e["query"], r["cache"]))
            elif self.timed:
                self.good.add(key)

    def after_pass(self, checks, work):
        if work["qcache.misses"] != 0:
            checks.fail("wire-warm: %d cache misses after warm-up" % work["qcache.misses"])

    def summary(self):
        return {}


class WireCold(WireWarm):
    """PathForge queries over an mmapped pack, every request a cache miss."""

    name = "wire-cold"
    graph = "cold"
    conns = 1
    expected_cache = "miss"

    def __init__(self, seed, work):
        self.file = os.path.join(work, "cold.csr")
        run_cmd([GPS, "graph", "pack", "--generate", "uniform", "--nodes", str(COLD_NODES),
                 "--edges", str(COLD_EDGES), "--seed", str(sub_seed(seed, 0)), "-o", self.file])
        out = run_cmd([REPLAY, "cold", self.file, str(COLD_CACHE + 1)]
                      + [str(sub_seed(seed, 1 + i)) for i in range(COLD_MIXES)])
        self.entries = json.loads(out)["entries"]
        if len(self.entries) <= COLD_CACHE:
            raise Abort("only %d cold queries for a %d-entry cache" % (len(self.entries), COLD_CACHE))
        self.good = set()
        self.timed = False

    def flags(self, i):
        return ["--load", "%s=%s" % (self.graph, self.file), "--cache", str(COLD_CACHE)]

    def after_pass(self, checks, work):
        if work["qcache.hits"] != 0:
            checks.fail("wire-cold: %d cache hits" % work["qcache.hits"])



def make_workload(name, seed, work):
    return {"session-smart": SessionSmart, "wire-warm": WireWarm, "wire-cold": WireCold}[name](seed, work)


# ---------------------------------------------------------------- phases


def start_servers(wl, timed_setup, extra_flags=lambda i: []):
    """All the workload's servers, each checked by its first answer. With
    timed_setup, server 0 is started SETUP_SPAWNS times and the median time
    from spawn to first correct answer is returned with the servers."""
    servers, times = [], []
    try:
        for i in range(wl.n_servers):
            spawns = SETUP_SPAWNS if timed_setup and i == 0 else 1
            for k in range(spawns):
                t0 = time.perf_counter()
                s = Server(wl.flags(i) + extra_flags(i), "%s-%d" % (wl.name, i))
                try:
                    conn = Conn(s.port)
                    ok = wl.first_answer(i, conn)
                    times.append(time.perf_counter() - t0)
                    conn.close()
                    if not ok:
                        raise Abort("first answer of %s server %d was wrong" % (wl.name, i))
                except BaseException:
                    s.stop()
                    raise
                if k < spawns - 1:
                    s.stop()
            servers.append(s)
    except BaseException:
        for s in servers:
            s.stop()
        raise
    return servers, (statistics.median(times) if timed_setup else None)


def stop_servers(servers):
    for s in servers:
        s.stop()


def timed_passes(wl, servers, seconds, checks, record=None, spans=None):
    """Whole passes until `seconds` of pass time have elapsed (at least one)."""
    ctls = [Conn(s.port) for s in servers]
    wl.begin(ctls, checks)
    pool = {}
    samples, per_pass, wall, rates, done = [], [], 0.0, [], 0
    faults0 = [s.proc_stat() for s in servers]
    # the client's cyclic GC would pause inside measured requests; the
    # timed phase creates no cycles worth collecting
    gc.collect()
    gc.disable()
    try:
        while True:
            wl.before_pass(ctls)
            before = counters(ctls)
            pass_wall = 0.0
            # wire lines are recorded for the first pass only
            for pi, phase in enumerate(wl.phases(checks, record if not per_pass else None)):
                conns = []
                for k, (si, _) in enumerate(phase):
                    if (pi, k) not in pool:
                        pool[(pi, k)] = Conn(servers[si].port)
                    conns.append(pool[(pi, k)])
                t0 = time.perf_counter()
                drive(conns, [g for _, g in phase], samples, spans)
                pass_wall += time.perf_counter() - t0
            wall += pass_wall
            rates.append((len(samples) - done) / pass_wall)
            done = len(samples)
            work = delta(counters(ctls), before)
            per_pass.append(work)
            wl.after_pass(checks, work)
            if wall >= seconds:
                break
    finally:
        gc.enable()
    faults1 = [s.proc_stat() for s in servers]
    for c in list(pool.values()) + ctls:
        c.close()
    first = {k: per_pass[0].get(k, 0) for k in WORK_COUNTS}
    if any({k: p.get(k, 0) for k in WORK_COUNTS} != first for p in per_pass[1:]):
        checks.fail("work counts differ between passes")
    passes = len(per_pass)
    return {
        "samples": samples,
        "wall": wall,
        # the median pass rate: a host stall slows one pass, not the figure
        "ops_per_s": statistics.median(rates),
        "passes": passes,
        "work": first,
        "faults": tuple(sum(b[j] - a[j] for a, b in zip(faults0, faults1)) / passes for j in (0, 1)),
        "counters_per_pass": {k: sum(p.get(k, 0) for p in per_pass) / passes for k in per_pass[0]},
        "errors": sum(p.get("server.dispatch_errors", 0) for p in per_pass),
    }


def tail_of(lat):
    """The tail of each block of TAIL_BLOCK consecutive requests (the last
    block takes the remainder), median over blocks: a host stall inflates
    the tail of the blocks it hits, not the figure."""
    k = max(1, len(lat) // TAIL_BLOCK)
    blocks = [lat[i * TAIL_BLOCK : (i + 1) * TAIL_BLOCK if i < k - 1 else len(lat)] for i in range(k)]
    p = tail_rank(len(blocks[0]))
    if p is None:
        return None, max(lat), k
    return p, statistics.median(nearest_rank(b, p) for b in blocks), k


def summarize(t):
    samples = t["samples"]
    lat = [ns / 1e6 for _, ns, _ in samples]
    p, tail, blocks = tail_of(lat)
    return {
        "n": len(lat),
        "p50_ms": nearest_rank(lat, 0.5),
        "tail_p": p,
        "tail_ms": tail,
        "tail_blocks": blocks,
        "ops_per_s": t["ops_per_s"],
        "bytes": sum(b for _, _, b in samples) / len(samples),
    }


def kinds_table(samples):
    kinds = {}
    for k, ns, _ in samples:
        kinds.setdefault(k, []).append(ns / 1e6)
    return {k: (len(v), statistics.median(v)) for k, v in sorted(kinds.items())}


def prepare_work(name, seed):
    """A fresh work directory; earlier runs' inputs and traces are removed."""
    shutil.rmtree(WORK, ignore_errors=True)
    work = os.path.join(WORK, "%s-%d" % (name, seed))
    os.makedirs(work)
    return work


def run_end_to_end(name, seed, seconds):
    """--trace 0: the end-to-end metrics."""
    work = prepare_work(name, seed)
    wl = make_workload(name, seed, work)
    checks = Checks()
    probe0 = host_probe()
    servers, setup_s = start_servers(wl, True)
    try:
        t = timed_passes(wl, servers, seconds, checks)
        rss = statistics.median(s.vm_hwm_mb() for s in servers)
    finally:
        stop_servers(servers)
    probe1 = host_probe()
    s = summarize(t)
    if t["errors"]:
        checks.fail("%d server dispatch errors" % t["errors"])
    info = wl.summary()
    log("workload %s seed %d: %d pass(es), %d requests in %.2f s, closed loop, %d server(s)"
        % (name, seed, t["passes"], s["n"], t["wall"], len(servers)))
    log("  setup_s    %.4f s   (median of %d server starts to first correct answer)" % (setup_s, SETUP_SPAWNS))
    log("  p50_ms     %.4f ms  (n=%d)" % (s["p50_ms"], s["n"]))
    block = s["n"] // s["tail_blocks"]
    log("  tail_ms    %.4f ms  (p%g: %d beyond it in each of %d block(s) of ~%d requests; median over blocks)"
        % (s["tail_ms"], 100 * s["tail_p"], block - math.ceil(s["tail_p"] * block), s["tail_blocks"], block))
    log("  ops_per_s  %.4f 1/s  (median over %d pass(es))" % (s["ops_per_s"], t["passes"]))
    log("  rss_mb     %.2f MB  (server VmHWM%s)" % (rss, ", median over servers" if len(servers) > 1 else ""))
    if name == "session-smart":
        log("  questions  %.4f answers per finished session (%d sessions)" % (info["questions"], info["sessions"]))
        log("  response digest %s; unsatisfied sessions: %s"
            % (info["digest"], ", ".join("%s %s after %d answers" % o for o in info["unsatisfied"]) or "none"))
        log("  answer kinds: " + "  ".join("%s n=%d p50=%.3fms" % (k, n, m) for k, (n, m) in kinds_table(t["samples"]).items()))
    log("  work per pass: " + " ".join("%s=%d" % (k, v) for k, v in t["work"].items() if v))
    log("  page faults per pass: minor %.0f major %.0f; answer bytes mean %.0f" % (t["faults"] + (s["bytes"],)))
    log("  host probe: %.3f s before, %.3f s after (diagnostic only)" % (probe0, probe1))
    for r in checks.reasons:
        log("  FAILED: " + r)
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (s["p50_ms"], "ms"),
        "tail_ms": (s["tail_ms"], "ms"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "rss_mb": (rss, "MB"),
        # interactions per satisfied goal: answers per finished session, and
        # exactly one request per verified query on the wire workloads
        "questions": (info["questions"] if name == "session-smart" else 1.0, "count"),
    }
    return checks, s["n"], metrics, {"work": t["work"], "digest": info.get("digest"),
                                      "questions": info.get("questions")}


def print_header(name, seed, seconds, trace):
    h = host_facts()
    log("perfbench: workload=%s seed=%d seconds=%d trace=%d" % (name, seed, seconds, trace))
    log("host: nproc=%s commit=%s ocaml=%s server --domains 1%s"
        % (h["nproc"], h["commit"], h["ocaml"],
           " --fsync always (the default policy)" if name == "session-smart" else ""))


def result_line(checks, attempted, metrics):
    return json.dumps({
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args(argv)
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if a.selftest:
            return selftest()
        print_header(a.workload, a.seed, a.seconds, a.trace)
        if a.trace:
            import trace_run

            checks, attempted, metrics = trace_run.run(a.workload, a.seed)
        else:
            checks, attempted, metrics, _ = run_end_to_end(a.workload, a.seed, a.seconds)
    except (Abort, OSError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2
    print(result_line(checks, attempted, metrics))
    return 0


def selftest():
    """Two runs of each workload with one seed give identical work counts,
    and for session-smart an identical response digest and questions."""
    bad = 0
    for name in WORKLOADS:
        a = run_end_to_end(name, 7, 1)
        b = run_end_to_end(name, 7, 1)
        for checks in (a[0], b[0]):
            if checks.failed:
                bad += 1
                log("selftest %s: %d failed operations" % (name, checks.failed))
        if a[3] != b[3]:
            bad += 1
            log("selftest %s: runs differ:\n  %s\n  %s" % (name, a[3], b[3]))
        else:
            log("selftest %s: identical work counts%s" % (name, ", digest and questions" if a[3]["digest"] else ""))
    log("selftest: %s" % ("FAILED" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
