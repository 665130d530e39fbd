"""--trace 1: the per-layer split of one workload pass.

Three sources, all over the same inputs:
  * the server's own span trace (`gps serve --trace FILE --profile`);
  * this client's span around each wire call;
  * the in-process replay (replay.exe), which times the public calls that
    have no span in the program (strategy choice, session calls, journal
    appends, protocol codec, mapped evaluation).
The table splits client wall time of the traced pass into layer self times
(span minus children) and what is left unattributed; the tracing overhead
is the traced pass against an untraced pass of the same inputs.
"""

import json
import os

import run as rb

# whole passes of at least this many seconds, untraced and traced
TRACE_SECONDS = 5

# span name prefix -> layer (the module that owns the span)
LAYERS = (
    ("session.", "lib/interactive"),
    ("propagate.", "lib/interactive"),
    ("learner.", "lib/learning"),
    ("rpni.", "lib/learning"),
    ("witness.", "lib/learning"),
    ("eval.", "lib/query"),
)


def layer_of(name):
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


# requests the benchmark sends between passes, not part of a workload
HOUSEKEEPING = ("metrics", "load")


def read_spans(path, t_lo, t_hi):
    """Server spans under the workload's dispatch roots inside [t_lo, t_hi]."""
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    children = {}
    for s in spans.values():
        children.setdefault(s["parent"], []).append(s)
    roots = [
        s for s in children.get(-1, [])
        if s["span"] == "server.dispatch" and t_lo <= s["start_ns"] <= t_hi
        and s["attrs"].get("endpoint") not in HOUSEKEEPING
    ]
    keep = []
    stack = list(roots)
    while stack:
        s = stack.pop()
        kids = children.get(s["id"], [])
        s["self_ns"] = s["dur_ns"] - sum(k["dur_ns"] for k in kids)
        keep.append(s)
        stack.extend(kids)
    return roots, keep


def distinct_rows(lines, path):
    counts = {}
    for line in lines:
        key = line.rstrip(b"\n")
        counts[key] = counts.get(key, 0) + 1
    with open(path, "wb") as f:
        for line, n in counts.items():
            f.write(b"%d\t%s\n" % (n, line))


def run(name, seed):
    work = rb.prepare_work(name, seed)
    wl = rb.make_workload(name, seed, work)
    checks = rb.Checks()

    # untraced pass: the reference for the tracing overhead, and page faults
    servers, _ = rb.start_servers(wl, False)
    try:
        plain = rb.timed_passes(wl, servers, TRACE_SECONDS, checks)
    finally:
        rb.stop_servers(servers)

    # traced pass with client spans and the wire lines recorded
    trace_files = [os.path.join(work, "server-trace-%d.jsonl" % i) for i in range(wl.n_servers)]
    servers, _ = rb.start_servers(wl, False, lambda i: ["--trace", trace_files[i], "--profile"])
    spans, record = [], ([], [])
    try:
        traced = rb.timed_passes(wl, servers, TRACE_SECONDS, checks, record=record, spans=spans)
    finally:
        rb.stop_servers(servers)

    t_lo, t_hi = min(t0 for t0, _ in spans), max(t1 for _, t1 in spans)
    roots, server_spans = [], []
    for f in trace_files:
        r, k = read_spans(f, t_lo, t_hi)
        roots += r
        server_spans += k
    if len(roots) != len(spans):
        checks.fail("%d dispatch spans for %d client calls" % (len(roots), len(spans)))
    n = len(spans)
    client_ns = sum(t1 - t0 for t0, t1 in spans)
    dispatch_ns = sum(s["dur_ns"] for s in roots)
    # connection time: with several connections in flight, each is a client
    wall_ns = traced["wall"] * 1e9 * wl.conns
    self_by_layer, incl_by_name = {}, {}
    for s in server_spans:
        layer = "lib/server (dispatch self)" if s["span"] == "server.dispatch" else layer_of(s["span"])
        self_by_layer[layer] = self_by_layer.get(layer, 0) + s["self_ns"]
        incl_by_name[s["span"]] = incl_by_name.get(s["span"], 0) + s["dur_ns"]

    # in-process replay of the same inputs
    req_path, resp_path = os.path.join(work, "requests.tsv"), os.path.join(work, "responses.tsv")
    distinct_rows(record[0], req_path)
    distinct_rows(record[1], resp_path)
    codec = json.loads(rb.run_cmd([rb.REPLAY, "codec", req_path, resp_path]))
    replay = {}
    if name == "session-smart":
        replay = json.loads(rb.run_cmd([rb.REPLAY, "session", os.path.join(work, "replay-state")] + wl.files))
        wire = [(a, r == "satisfied") for _, r, a in wl.outcomes[0]]
        local = [(s["questions"], s["satisfied"]) for s in replay["sessions"]]
        if wire != local:
            checks.fail("in-process replay disagrees with the wire sessions: %s vs %s" % (local, wire))
    mapped = {"mapped_ms": 0.0}
    if name == "wire-cold":
        mapped = json.loads(rb.run_cmd([rb.REPLAY, "mapped", wl.file] + [e["query"] for e in wl.entries]))

    w = traced["work"]
    c = traced["counters_per_pass"]
    strategy = replay.get("strategy", {"ms": 0.0, "calls": 0, "candidates": 0})
    calls = replay.get("calls_ms", {})
    dur = replay.get("durability", {"appends": 0, "ms": 0.0})
    hits, misses = w["qcache.hits"], w["qcache.misses"]
    ms = lambda ns: ns / 1e6
    per_pass_ms = lambda ns: ns / 1e6 / traced["passes"]
    pass_s = lambda t: t["wall"] / t["passes"]
    metrics = {
        "strategy.choose_ms": (strategy["ms"], "ms"),
        "strategy.choose_calls": (strategy["calls"], "count"),
        "strategy.candidates": (strategy["candidates"] / strategy["calls"] if strategy["calls"] else 0.0, "count"),
        "session.start_ms": (calls.get("start", 0.0), "ms"),
        "session.refine_ms": (calls.get("refine", 0.0), "ms"),
        "session.answer_label_ms": (calls.get("answer_label", 0.0), "ms"),
        "session.answer_path_ms": (calls.get("answer_path", 0.0), "ms"),
        "propagate.ms": (per_pass_ms(sum(v for k, v in incl_by_name.items() if k.startswith("propagate."))), "ms"),
        "session.nodes_pruned": (w["session.nodes_pruned"], "count"),
        "session.relearns": (w["session.relearns"], "count"),
        "learner.learn_ms": (per_pass_ms(incl_by_name.get("learner.learn", 0)), "ms"),
        "learner.runs": (w["learner.runs"], "count"),
        "rpni.merge_accept_ratio": (w["rpni.merge_accepts"] / w["rpni.merge_attempts"] if w["rpni.merge_attempts"] else 0.0, "ratio"),
        "witness.searches": (w["witness.searches"], "count"),
        "witness.expansions": (w["witness.expansions"], "count"),
        "eval.heap_ms": (per_pass_ms(sum(v for k, v in incl_by_name.items() if k in ("eval.select", "eval.select_frozen"))), "ms"),
        "eval.mapped_ms": (mapped["mapped_ms"], "ms"),
        "eval.product_states": (w["eval.product_states"], "count"),
        "eval.frontier_visits": (w["eval.frontier_visits"], "count"),
        "transport.us": ((client_ns - dispatch_ns) / n / 1e3, "us"),
        "protocol.decode_us": (codec["decode_us"], "us"),
        "protocol.encode_us": (codec["encode_us"], "us"),
        "dispatch.us": (self_by_layer.get("lib/server (dispatch self)", 0) / n / 1e3, "us"),
        "answer.bytes": (rb.summarize(traced)["bytes"], "bytes"),
        "qcache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "qcache.evictions": (w["qcache.evictions"], "count"),
        "durability.append_us": (dur["ms"] * 1e3 / dur["appends"] if dur["appends"] else 0.0, "us"),
        "durability.fsyncs": (dur["appends"], "count"),
        "graph.minor_faults": (plain["faults"][0], "count"),
        "graph.major_faults": (plain["faults"][1], "count"),
        "gc.minor_collections": (c.get("gc.minor_collections", 0), "count"),
        "gc.major_slices": (c.get("gc.major_slices", 0), "count"),
        "trace.overhead_pct": (100.0 * (pass_s(traced) / pass_s(plain) - 1), "%"),
    }

    p_plain = rb.summarize(plain)
    p_traced = rb.summarize(traced)
    rb.log("per-layer split of %s: %d traced pass(es), %d requests; client connection time %.1f ms"
           % (name, traced["passes"], n, ms(wall_ns)))
    rb.log("  %-34s %12s %8s" % ("layer (self time)", "ms", "share"))
    rows = [("lib/server transport (client - dispatch)", client_ns - dispatch_ns)]
    rows += sorted(self_by_layer.items(), key=lambda kv: -kv[1])
    rows.append(("unattributed (client between calls)", wall_ns - client_ns))
    for label, ns in rows:
        rb.log("  %-34s %12.2f %7.1f%%" % (label, ms(ns), 100 * ns / wall_ns))
    rb.log("  %-34s %12.2f %7.1f%%" % ("total = connection time", ms(wall_ns), 100.0))
    rb.log("  of which, from the in-process replay (untraced):")
    rb.log("    protocol decode+encode            %10.2f ms" % ((codec["decode_us"] + codec["encode_us"]) * n / 1e3))
    if name == "session-smart":
        rb.log("    durability journal appends        %10.2f ms (%d fsyncs)"
               % (dur["ms"] * traced["passes"], dur["appends"] * traced["passes"]))
        replay_server_ms = sum(calls.values()) + dur["ms"]
        rb.log("  replay server work %.1f ms; share by call:" % replay_server_ms)
        ranked = [("strategy.choose_ms", strategy["ms"])] + [("session.%s_ms" % k, v) for k, v in calls.items()]
        ranked.append(("durability (journal)", dur["ms"]))
        for label, v in sorted(ranked, key=lambda kv: -kv[1]):
            rb.log("    %-32s %10.2f ms %6.1f%%" % (label, v, 100 * v / replay_server_ms))
    if name == "wire-cold":
        rb.log("    eval.select_mapped (replay)       %10.2f ms" % (mapped["mapped_ms"] * traced["passes"]))
    rb.log("  tracing overhead: %.1f ms per pass untraced, %.1f ms traced (%+.1f%%); p50 %.4f -> %.4f ms; ops/s %.2f -> %.2f"
           % (pass_s(plain) * 1e3, pass_s(traced) * 1e3, metrics["trace.overhead_pct"][0],
              p_plain["p50_ms"], p_traced["p50_ms"], p_plain["ops_per_s"], p_traced["ops_per_s"]))
    for label, (v, unit) in metrics.items():
        rb.log("  %-26s %14.4f %s" % (label, v, unit))
    for r in checks.reasons:
        rb.log("  FAILED: " + r)
    return checks, n + p_plain["n"], metrics
