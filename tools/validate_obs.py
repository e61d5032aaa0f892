#!/usr/bin/env python3
"""Validate noisewin's observability artifacts (CI gate).

Usage:
    validate_obs.py --trace trace.json --stats stats.json
    validate_obs.py --server-trace strace.json --server-stats sstats.json
    validate_obs.py --daemon-stats dstats.json --daemon-trace dtrace.json
    validate_obs.py --bench-record record.json
    validate_obs.py --html-report report.html
    validate_obs.py --profile run.folded

Checks the Chrome trace-event JSON (parses, per-thread spans well-nested,
required keys present, counter events well-formed) and the stats JSON
(schema v6 meta, required metrics, histogram bucket counts + quantile
summaries consistent, "resources", "executor" and "memory" sections
present and internally consistent, "timeseries" ring invariants when
sampling ran). No stats document or bench record may hold a null
anywhere (the writer's spelling of a non-finite value); the failure names
its JSON path. The v5 "memory" section must satisfy the per-account
invariants (peak >= current >= 0) everywhere; --stats and --daemon-stats
additionally require at least 6 accounts with nonzero peaks, and --stats
requires the analysis_context and kernel_buffers accounts to be charged,
back at zero, and balanced (allocs == frees).
--daemon-trace additionally requires the sampler's counter tracks
(queue depth, active connections, in-flight analyses, tracked bytes).
Server-mode artifacts additionally need the request track: request spans
on the "server" thread enclosing analyzer phase spans, per-command latency
histograms, and the slow log. Bench run records need the "bench" section
(git SHA, timestamp, build type, peak RSS). --stats also checks the
analyzer's timing bookkeeping: phase times non-negative and summing to at
most total_seconds, and executor_tasks equal to the executor regions'
summed chunks. --profile validates a
collapsed-stack ("folded") profile: well-formed `stack us` lines, sorted,
no stack ending in two equal frames, with every analyzer phase present;
given --stats too, each phase's
inclusive microseconds on the main thread must match its phase gauge.
Exits non-zero with a
message on the first failure — schema violations gate CI; perf comparison
(tools/bench_history.py, tools/perf_diff.py) stays advisory.
"""

import argparse
import json
import sys

STATS_SCHEMA_VERSION = 6  # obs::kStatsSchemaVersion

REQUIRED_COUNTERS = ["victims_estimated", "aggressor_pairs", "executor_tasks"]
REQUIRED_GAUGES = ["propagation_levels", "endpoints_checked", "violations"]
REQUIRED_HISTOGRAMS = ["glitch_peak_v", "aggressors_per_victim", "level_width"]
REQUIRED_META = ["schema_version", "design", "mode", "model", "options_digest",
                 "build", "threads", "iterations"]
REQUIRED_BENCH = ["record_version", "git_sha", "git_describe", "build_type",
                  "timestamp_utc", "unix_time", "peak_rss_bytes"]
PHASES = ["estimate-injected", "propagate", "check-endpoints"]
PHASE_FRAMES = {"build-context": "phase_context_seconds",
                "estimate-injected": "phase_estimate_seconds",
                "propagate": "phase_propagate_seconds",
                "check-endpoints": "phase_endpoints_seconds"}
PHASE_SECONDS = ["phase_context_seconds", "phase_estimate_seconds",
                 "phase_propagate_seconds", "phase_endpoints_seconds"]


def fail(msg):
    print(f"validate_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    with open(path) as f:
        return json.load(f)


def find_null(value, where="$"):
    """JSON path of the first null in `value` (None when there is none)."""
    if value is None:
        return where
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        sub = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"
        hit = find_null(item, sub)
        if hit is not None:
            return hit
    return None


def load_stats(path, context):
    """Load a stats document. The writer renders a non-finite number as
    null, so any null is a value that went wrong upstream."""
    doc = load(path)
    where = find_null(doc)
    if where is not None:
        fail(f"{context}: null at {where} in {path} (a non-finite value)")
    return doc


def check_histogram(name, h):
    if len(h["counts"]) != len(h["bounds"]) + 1:
        fail(f"stats: histogram '{name}': counts/bounds size mismatch")
    if sum(h["counts"]) != h["count"]:
        fail(f"stats: histogram '{name}': bucket counts do not sum to count")
    if h["bounds"] != sorted(set(h["bounds"])):
        fail(f"stats: histogram '{name}': bounds not strictly ascending")
    for key in ("min", "max", "p50", "p95", "p99"):
        if key not in h:
            fail(f"stats: histogram '{name}': missing '{key}' (schema v2)")
    if h["count"] > 0:
        order = [h["min"], h["p50"], h["p95"], h["p99"], h["max"]]
        if order != sorted(order):
            fail(f"stats: histogram '{name}': min/p50/p95/p99/max not "
                 f"monotone: {order}")


def check_executor(doc, context):
    """The schema-v3 "executor" section: per-worker busy/idle, per-region
    utilization aggregates, and the work-attribution top-K lists."""
    ex = doc.get("executor")
    if not isinstance(ex, dict):
        fail(f"{context}: no executor section (schema v3)")
    for key in ("enabled", "threads", "wall_s", "workers", "regions",
                "attribution"):
        if key not in ex:
            fail(f"{context}: executor section missing '{key}'")
    if not isinstance(ex["workers"], list) or not isinstance(ex["regions"], dict):
        fail(f"{context}: executor workers/regions have the wrong shape")
    if not ex["enabled"]:
        return
    for w in ex["workers"]:
        for key in ("worker", "busy_s", "idle_s", "chunks"):
            if key not in w:
                fail(f"{context}: executor worker missing '{key}': {w}")
        if w["busy_s"] < 0 or w["idle_s"] < 0:
            fail(f"{context}: executor worker has negative time: {w}")
    for label, reg in ex["regions"].items():
        for key in ("invocations", "chunks", "items", "wall_s", "busy_s",
                    "max_busy_s", "wait_s", "imbalance"):
            if key not in reg:
                fail(f"{context}: executor region '{label}' missing '{key}'")
        if reg["invocations"] <= 0:
            fail(f"{context}: executor region '{label}' has no invocations")
        if reg["max_busy_s"] > reg["busy_s"] + 1e-12:
            fail(f"{context}: executor region '{label}': max_busy_s exceeds "
                 f"summed busy_s")
        # imbalance = max_busy * threads / busy >= 1 by construction.
        if reg["busy_s"] > 0 and reg["imbalance"] < 0.99:
            fail(f"{context}: executor region '{label}': imbalance "
                 f"{reg['imbalance']} < 1")
    attribution = ex["attribution"]
    for key in ("top_levels", "top_nets"):
        if not isinstance(attribution.get(key), list):
            fail(f"{context}: executor attribution missing '{key}' list")
    for l in attribution["top_levels"]:
        for key in ("level", "instances", "wall_ms"):
            if key not in l:
                fail(f"{context}: attribution level entry missing '{key}'")
    for n in attribution["top_nets"]:
        for key in ("net", "aggressors", "peak"):
            if key not in n:
                fail(f"{context}: attribution net entry missing '{key}'")


def check_analysis_timing(doc, context):
    """An analyzer stats record's own bookkeeping: the phase gauges are
    non-negative and fit inside total_seconds (every phase span runs inside
    the analysis), and executor_tasks is the sum of the executor section's
    region chunk counts (finish() derives it from them)."""
    timing = doc["timing"]
    for name in PHASE_SECONDS + ["total_seconds"]:
        if not isinstance(timing.get(name), (int, float)):
            fail(f"{context}: timing missing '{name}'")
    phases = [timing[name] for name in PHASE_SECONDS]
    if min(phases) < 0:
        fail(f"{context}: negative phase time: {dict(zip(PHASE_SECONDS, phases))}")
    if sum(phases) > timing["total_seconds"] + 1e-6:
        fail(f"{context}: phase times sum to {sum(phases)} s, more than "
             f"total_seconds {timing['total_seconds']}")
    chunks = sum(r["chunks"] for r in doc["executor"]["regions"].values())
    if doc["counters"]["executor_tasks"] != chunks:
        fail(f"{context}: executor_tasks {doc['counters']['executor_tasks']} "
             f"!= summed executor region chunks {chunks}")


def check_memory(doc, context, min_nonzero=0):
    """The schema-v5 "memory" section: per-subsystem heap accounts from the
    tracking allocator. Every account must satisfy peak >= current >= 0;
    alloc/free counts are non-negative but allocs >= frees is NOT an
    invariant (sampled accounts like trace_buffers use adjust_to). When
    min_nonzero is given, at least that many accounts must have a nonzero
    peak (an analysis ran, so the big owners must all have been charged)."""
    mem = doc.get("memory")
    if not isinstance(mem, dict):
        fail(f"{context}: no memory section (schema v5)")
    for key in ("enabled", "accounts", "total_current_bytes",
                "total_peak_bytes"):
        if key not in mem:
            fail(f"{context}: memory section missing '{key}'")
    accounts = mem["accounts"]
    if not isinstance(accounts, dict) or not accounts:
        fail(f"{context}: memory accounts empty or wrong shape")
    total_current = 0
    total_peak = 0
    nonzero = 0
    for name, a in accounts.items():
        for key in ("current_bytes", "peak_bytes", "allocs", "frees"):
            if not isinstance(a.get(key), int) or a[key] < 0:
                fail(f"{context}: memory account '{name}.{key}' not a "
                     f"non-negative integer: {a.get(key)!r}")
        if a["peak_bytes"] < a["current_bytes"]:
            fail(f"{context}: memory account '{name}': peak "
                 f"{a['peak_bytes']} < current {a['current_bytes']}")
        total_current += a["current_bytes"]
        total_peak += a["peak_bytes"]
        if a["peak_bytes"] > 0:
            nonzero += 1
    if mem["total_current_bytes"] != total_current:
        fail(f"{context}: memory total_current_bytes "
             f"{mem['total_current_bytes']} != summed {total_current}")
    if mem["total_peak_bytes"] != total_peak:
        fail(f"{context}: memory total_peak_bytes "
             f"{mem['total_peak_bytes']} != summed {total_peak}")
    if mem["enabled"] and nonzero < min_nonzero:
        fail(f"{context}: only {nonzero} memory accounts have nonzero peaks "
             f"(expected >= {min_nonzero}) — are the subsystem owners "
             f"charging their accounts?")
    return mem


def check_analysis_accounts(mem, context):
    """After a CLI analysis the per-analysis structure is gone: every
    AnalysisContext slab allocates through the tracking allocator, so the
    analysis_context and kernel_buffers accounts were charged (peak > 0)
    and are back to zero with one free per alloc."""
    if not mem["enabled"]:
        return
    for name in ("analysis_context", "kernel_buffers"):
        a = mem["accounts"].get(name)
        if a is None:
            fail(f"{context}: memory account '{name}' missing")
        if a["peak_bytes"] <= 0:
            fail(f"{context}: memory account '{name}' was never charged")
        if a["current_bytes"] != 0:
            fail(f"{context}: memory account '{name}' still holds "
                 f"{a['current_bytes']} bytes after the analysis")
        if a["allocs"] != a["frees"]:
            fail(f"{context}: memory account '{name}': allocs {a['allocs']} "
                 f"!= frees {a['frees']}")


def iter_histograms(doc):
    """Every histogram object in any section (timing mixes kinds)."""
    for section in ("histograms", "timing", "resources"):
        for name, v in doc.get(section, {}).items():
            if isinstance(v, dict) and "bounds" in v:
                yield name, v


def check_counter_events(events, required=False):
    """Chrome counter ('C') events: the sampler's gauge tracks. Always
    well-formed when present; a daemon trace must actually have them."""
    counters = [e for e in events if e.get("ph") == "C"]
    names = set()
    for e in counters:
        for key in ("pid", "tid", "name", "ts", "args"):
            if key not in e:
                fail(f"trace: counter event missing '{key}': {e}")
        if not isinstance(e["args"], dict) or not e["args"]:
            fail(f"trace: counter event has no args values: {e}")
        if not any(isinstance(v, (int, float)) for v in e["args"].values()):
            fail(f"trace: counter event args carry no numeric value: {e}")
        names.add(e["name"])
    if required:
        if not counters:
            fail("daemon trace: no counter ('C') events — was the sampler "
                 "off (--sample-ms 0)?")
        for name in ("queue_depth", "active_connections", "analyses_inflight",
                     "tracked_bytes"):
            if name not in names:
                fail(f"daemon trace: no '{name}' counter track")
    return counters


def validate_trace(path, server=False, counters=False):
    doc = load(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace: no traceEvents")

    counter_events = check_counter_events(events, required=counters)
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail("trace: no complete ('X') events")
    for e in spans:
        for key in ("pid", "tid", "name", "cat", "ts", "dur"):
            if key not in e:
                fail(f"trace: span missing '{key}': {e}")
        if e["dur"] < 0:
            fail(f"trace: negative duration: {e}")

    # Spans on one thread must be well-nested: treated as a scope stack,
    # each span either contains or is disjoint from every other.
    eps = 1e-6  # µs slack for the fixed 3-decimal serialization
    by_tid = {}
    for e in spans:
        by_tid.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
    for tid, ivals in by_tid.items():
        ivals.sort(key=lambda se: (se[0], -se[1]))
        stack = []
        for start, end in ivals:
            while stack and start >= stack[-1] - eps:
                stack.pop()
            if stack and end > stack[-1] + eps:
                fail(f"trace: tid {tid}: span [{start},{end}] straddles "
                     f"enclosing span ending at {stack[-1]}")
            stack.append(end)

    names = {e["name"] for e in spans}
    missing = [p for p in PHASES if p not in names]
    if missing:
        fail(f"trace: missing analyzer phase spans: {missing}")

    meta = [e for e in events if e.get("ph") == "M"]
    if not any(e.get("name") == "thread_name" for e in meta):
        fail("trace: no thread_name metadata")

    if server:
        thread_names = {e["args"]["name"]: e["tid"] for e in meta
                        if e.get("name") == "thread_name"}
        if "server" not in thread_names:
            fail("server trace: no 'server' thread track")
        server_tid = thread_names["server"]
        requests = [e for e in spans if e.get("cat") == "request"]
        if not requests:
            fail("server trace: no request spans (cat 'request')")
        for e in requests:
            if e["tid"] != server_tid:
                fail(f"server trace: request span off the server track: {e}")
            if not e["name"].startswith("request "):
                fail(f"server trace: request span misnamed: {e['name']}")
        # At least one request must enclose a full analyzer phase sequence —
        # the end-to-end request → analyze → phase nesting the tentpole is for.
        phases = [e for e in spans if e["name"] in PHASES]
        enclosing = 0
        for r in requests:
            inside = [p["name"] for p in phases
                      if p["ts"] >= r["ts"] - eps
                      and p["ts"] + p["dur"] <= r["ts"] + r["dur"] + eps]
            if all(p in inside for p in PHASES):
                enclosing += 1
        if enclosing == 0:
            fail("server trace: no request span encloses the analyzer phases")
        print(f"validate_obs: server trace OK ({len(requests)} request spans, "
              f"{enclosing} enclosing a full analysis)")
    print(f"validate_obs: trace OK ({len(spans)} spans, {len(by_tid)} threads, "
          f"{len(counter_events)} counter events)")


def validate_stats(path, server=False):
    doc = load_stats(path, "server stats" if server else "stats")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        fail("stats: no meta object")
    for key in REQUIRED_META:
        if key not in meta:
            fail(f"stats: meta missing '{key}'")
    if meta["schema_version"] != STATS_SCHEMA_VERSION:
        fail(f"stats: unexpected schema_version {meta['schema_version']} "
             f"(expected {STATS_SCHEMA_VERSION})")

    for section in ("counters", "gauges", "histograms", "resources", "timing"):
        if not isinstance(doc.get(section), dict):
            fail(f"stats: no {section} object")

    if server:
        required = (("counters", ["protocol_requests", "session_full_analyses"]),
                    ("gauges", ["session_epoch", "session_cached_results"]))
    else:
        required = (("counters", REQUIRED_COUNTERS),
                    ("gauges", REQUIRED_GAUGES),
                    ("histograms", REQUIRED_HISTOGRAMS))
    for section, names in required:
        for name in names:
            if name not in doc[section]:
                fail(f"stats: {section} missing '{name}'")

    for name, h in iter_histograms(doc):
        check_histogram(name, h)
    check_executor(doc, "server stats" if server else "stats")
    check_timeseries(doc, "server stats" if server else "stats")  # if sampled
    # A full CLI analysis charges design, parasitics, sta, analysis_context,
    # kernel_buffers and result; a server session may not have analyzed yet,
    # so only the structural invariants apply there.
    mem = check_memory(doc, "server stats" if server else "stats",
                       min_nonzero=0 if server else 6)
    if not server:
        check_analysis_accounts(mem, "stats")
        check_analysis_timing(doc, "stats")

    resources = doc["resources"]
    if not any(isinstance(v, (int, float)) and v > 0 for v in resources.values()):
        fail("stats: resources section has no nonzero gauge")
    if resources.get("peak_rss_bytes", 0) <= 0:
        fail("stats: peak_rss_bytes missing or zero")

    if server:
        latencies = [k for k in doc["timing"] if k.startswith("request_ms_")]
        if not latencies:
            fail("server stats: no request_ms_* latency histograms in timing")
        for k in latencies:
            if not isinstance(doc["timing"][k], dict):
                fail(f"server stats: {k} is not a histogram object")
        for gauge in ("session_cache_bytes", "session_journal_bytes"):
            if resources.get(gauge, 0) <= 0:
                fail(f"server stats: resource gauge '{gauge}' missing or zero")
        slowlog = doc.get("slowlog")
        if not isinstance(slowlog, dict):
            fail("server stats: no slowlog section")
        for key in ("threshold_ms", "capacity", "recorded", "entries"):
            if key not in slowlog:
                fail(f"server stats: slowlog missing '{key}'")
        if not isinstance(slowlog["entries"], list):
            fail("server stats: slowlog entries is not a list")
        for e in slowlog["entries"]:
            for key in ("id", "cmd", "ms", "ok"):
                if key not in e:
                    fail(f"server stats: slowlog entry missing '{key}': {e}")
        print(f"validate_obs: server stats OK ({len(latencies)} latency "
              f"histograms, {len(slowlog['entries'])} slow requests)")
    print(f"validate_obs: stats OK (design '{meta['design']}', "
          f"digest {meta['options_digest']})")


def validate_bench_record(path):
    doc = load_stats(path, "bench record")
    validate_stats_like = doc.get("meta", {})
    if validate_stats_like.get("schema_version") != STATS_SCHEMA_VERSION:
        fail(f"bench record: unexpected schema_version in {path}")
    bench = doc.get("bench")
    if not isinstance(bench, dict):
        fail("bench record: no 'bench' section")
    for key in REQUIRED_BENCH:
        if key not in bench:
            fail(f"bench record: bench section missing '{key}'")
    if bench["record_version"] != 1:
        fail(f"bench record: unexpected record_version {bench['record_version']}")
    if not isinstance(bench["git_sha"], str) or not bench["git_sha"]:
        fail("bench record: empty git_sha")
    if bench["build_type"] not in ("Release", "Debug"):
        fail(f"bench record: unexpected build_type '{bench['build_type']}'")
    if not (isinstance(bench["peak_rss_bytes"], int) and bench["peak_rss_bytes"] > 0):
        fail("bench record: peak_rss_bytes missing or zero")
    if not (isinstance(bench["unix_time"], int) and bench["unix_time"] > 0):
        fail("bench record: unix_time missing or zero")
    for name, h in iter_histograms(doc):
        check_histogram(name, h)
    check_executor(doc, "bench record")
    # Bench harnesses call the analyzer directly (no CLI owner charges), but
    # the pipeline itself always charges analysis_context + kernel_buffers.
    check_memory(doc, "bench record", min_nonzero=1)
    print(f"validate_obs: bench record OK (sha {bench['git_sha'][:12]}, "
          f"{bench['build_type']}, peak RSS {bench['peak_rss_bytes']} B)")


def validate_profile(path, require_phases=True, stats_path=None):
    """A collapsed-stack ("folded") profile: one `stack us` line per
    distinct span stack, sorted by stack, root frame = thread name, no
    stack ending in two equal frames (a span nested in one of its own
    name), and —
    for an analysis capture — every analyzer phase present. With the run's
    stats record, each phase frame's inclusive microseconds on the main
    thread (the stacks that pass through it) must equal its phase gauge,
    within 1 us per such stack (each stack's time is rounded up)."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        fail(f"profile: {path} is empty")
    stacks = []
    total = 0
    for ln in lines:
        stack, sep, us = ln.rpartition(" ")
        if not sep or not stack:
            fail(f"profile: malformed folded line (no time): {ln!r}")
        try:
            n = int(us)
        except ValueError:
            fail(f"profile: malformed time in line: {ln!r}")
        if n <= 0:
            fail(f"profile: non-positive time in line: {ln!r}")
        frames = stack.split(";")
        if any(not f for f in frames):
            fail(f"profile: empty frame in stack: {stack!r}")
        if len(frames) >= 2 and frames[-1] == frames[-2]:
            fail(f"profile: stack ends in two equal frames: {stack!r}")
        stacks.append((frames, n))
        total += n
    names = [";".join(frames) for frames, _ in stacks]
    if names != sorted(names):
        fail("profile: stacks are not sorted (write_folded sorts by stack)")
    if len(set(names)) != len(names):
        fail("profile: duplicate stack lines (aggregation broken)")
    if require_phases:
        for phase in PHASE_FRAMES:
            if not any(phase in frames for frames, _ in stacks):
                fail(f"profile: no stack in analyzer phase '{phase}'")
    if stats_path:
        timing = load_stats(stats_path, "stats")["timing"]
        for phase, gauge in PHASE_FRAMES.items():
            under = [n for frames, n in stacks
                     if frames[0] == "main" and phase in frames[1:]]
            want = timing[gauge] * 1e6
            if abs(sum(under) - want) > len(under):
                fail(f"profile: '{phase}' on main folds {sum(under)} us over "
                     f"{len(under)} stacks, but {gauge} is {want:.1f} us")
    print(f"validate_obs: profile OK ({len(stacks)} stacks, {total} us)")


def check_timeseries(doc, context, required=False):
    """The schema-v4 "timeseries" section: the telemetry ring snapshot.
    Bounded length, per-sample arity matching the series list, and monotone
    nondecreasing sample times."""
    ts = doc.get("timeseries")
    if ts is None:
        if required:
            fail(f"{context}: no timeseries section (schema v4)")
        return
    if not isinstance(ts, dict):
        fail(f"{context}: timeseries is not an object")
    for key in ("interval_ms", "capacity", "total", "series", "samples"):
        if key not in ts:
            fail(f"{context}: timeseries missing '{key}'")
    if not isinstance(ts["series"], list) or not ts["series"]:
        fail(f"{context}: timeseries series list empty")
    if not isinstance(ts["samples"], list):
        fail(f"{context}: timeseries samples is not a list")
    if ts["capacity"] < 1:
        fail(f"{context}: timeseries capacity {ts['capacity']} < 1")
    if len(ts["samples"]) > ts["capacity"]:
        fail(f"{context}: timeseries holds {len(ts['samples'])} samples, "
             f"more than its capacity {ts['capacity']} (ring unbounded?)")
    if ts["total"] < len(ts["samples"]):
        fail(f"{context}: timeseries total {ts['total']} < retained "
             f"{len(ts['samples'])}")
    prev_t = -1.0
    for s in ts["samples"]:
        if "t_ms" not in s or "v" not in s:
            fail(f"{context}: timeseries sample missing t_ms/v: {s}")
        if len(s["v"]) != len(ts["series"]):
            fail(f"{context}: timeseries sample arity {len(s['v'])} != "
                 f"{len(ts['series'])} series")
        if s["t_ms"] < prev_t:
            fail(f"{context}: timeseries sample times not monotone "
                 f"({s['t_ms']} after {prev_t})")
        prev_t = s["t_ms"]
    if required and not ts["samples"]:
        fail(f"{context}: timeseries recorded no samples")
    return ts


DAEMON_SECTION_KEYS = ["accepted", "active", "rejected", "idle_closed",
                       "handled", "shed", "queue_rejected", "queue_depth",
                       "analyze_ewma_ms", "max_connections", "analysis_slots",
                       "max_queued"]


def validate_daemon_stats(path):
    """Stats written by `noisewin daemon` at drain: schema-v3 meta plus the
    "daemon" serving section (admission/shedding counters, governor EWMA).
    The counters here are the daemon's serving-layer registry — per-client
    analysis metrics live in each connection's session — so the analyzer
    metric requirements of --stats do not apply."""
    doc = load_stats(path, "daemon stats")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        fail("daemon stats: no meta object")
    for key in REQUIRED_META:
        if key not in meta:
            fail(f"daemon stats: meta missing '{key}'")
    if meta["schema_version"] != STATS_SCHEMA_VERSION:
        fail(f"daemon stats: unexpected schema_version "
             f"{meta['schema_version']} (expected {STATS_SCHEMA_VERSION})")
    for section in ("counters", "gauges", "histograms", "resources", "timing"):
        if not isinstance(doc.get(section), dict):
            fail(f"daemon stats: no {section} object")
    for name, h in iter_histograms(doc):
        check_histogram(name, h)

    d = doc.get("daemon")
    if not isinstance(d, dict):
        fail("daemon stats: no 'daemon' section")
    for key in DAEMON_SECTION_KEYS:
        if key not in d:
            fail(f"daemon stats: daemon section missing '{key}'")
        if not isinstance(d[key], (int, float)) or d[key] < 0:
            fail(f"daemon stats: daemon.{key} not a non-negative number: "
                 f"{d[key]!r}")
    if d["accepted"] < 1:
        fail("daemon stats: no connections were ever accepted")
    if d["handled"] < 1:
        fail("daemon stats: no requests were ever handled")
    if d["active"] != 0:
        fail(f"daemon stats: {d['active']} connections still active at drain")
    if d["queue_depth"] != 0:
        fail(f"daemon stats: {d['queue_depth']} requests still queued at drain")
    if d["max_connections"] < 1 or d["max_queued"] < 1:
        fail("daemon stats: admission limits not exported")
    if "daemon_prewarm_ms" not in doc["timing"]:
        fail("daemon stats: no daemon_prewarm_ms in timing (seed analysis "
             "wall time)")
    ts = check_timeseries(doc, "daemon stats", required=True)
    check_memory(doc, "daemon stats", min_nonzero=6)
    latencies = [k for k in doc["timing"] if k.startswith("request_ms_")]
    if not latencies:
        fail("daemon stats: no aggregated request_ms_* latency histograms "
             "(schema v4: connections mirror into the daemon registry)")
    print(f"validate_obs: daemon stats OK ({int(d['accepted'])} connections, "
          f"{int(d['handled'])} requests, {int(d['shed'])} shed, "
          f"{len(ts['samples'])} telemetry samples)")


HTML_SECTION_IDS = ["meta", "summary", "timelines", "pareto", "slack",
                    "executor", "flame", "live", "memory", "phases"]
HTML_BANNED = ["http://", "https://", "<script", "<link", "url(", "src="]


def validate_html_report(path):
    """The --html-report artifact must be one self-contained document."""
    with open(path) as f:
        html = f.read()
    if not html.startswith("<!DOCTYPE html"):
        fail("html report: missing <!DOCTYPE html> preamble")
    if "<svg" not in html:
        fail("html report: no inline SVG charts")
    for section in HTML_SECTION_IDS:
        if f'id="{section}"' not in html:
            fail(f"html report: missing section id \"{section}\"")
    for banned in HTML_BANNED:
        if banned in html:
            fail(f"html report: external reference '{banned}' breaks "
                 f"self-containment")
    if html.count("<style") != 1:
        fail(f"html report: expected exactly one <style> block, "
             f"found {html.count('<style')}")
    print(f"validate_obs: html report OK ({len(html)} bytes, "
          f"{len(HTML_SECTION_IDS)} sections)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace")
    ap.add_argument("--stats")
    ap.add_argument("--server-trace")
    ap.add_argument("--server-stats")
    ap.add_argument("--daemon-stats")
    ap.add_argument("--daemon-trace",
                    help="daemon-side Chrome trace: counter tracks required")
    ap.add_argument("--bench-record", action="append", default=[])
    ap.add_argument("--html-report")
    ap.add_argument("--profile", help="folded span-time profile to validate")
    ap.add_argument("--profile-no-phases", action="store_true",
                    help="skip the analyzer-phase coverage check (server "
                         "captures, partial runs)")
    args = ap.parse_args()
    if not any([args.trace, args.stats, args.server_trace, args.server_stats,
                args.daemon_stats, args.daemon_trace, args.bench_record,
                args.html_report, args.profile]):
        ap.error("give --trace, --stats, --server-trace, --server-stats, "
                 "--daemon-stats, --daemon-trace, --bench-record, "
                 "--html-report, and/or --profile")
    if args.trace:
        validate_trace(args.trace)
    if args.stats:
        validate_stats(args.stats)
    if args.server_trace:
        validate_trace(args.server_trace, server=True)
    if args.server_stats:
        validate_stats(args.server_stats, server=True)
    if args.daemon_stats:
        validate_daemon_stats(args.daemon_stats)
    if args.daemon_trace:
        validate_trace(args.daemon_trace, counters=True)
    for path in args.bench_record:
        validate_bench_record(path)
    if args.html_report:
        validate_html_report(args.html_report)
    if args.profile:
        validate_profile(args.profile, require_phases=not args.profile_no_phases,
                         stats_path=args.stats)


if __name__ == "__main__":
    main()
