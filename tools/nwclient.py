#!/usr/bin/env python3
"""Minimal JSONL client for `noisewin serve` and `noisewin daemon` (stdlib only).

Library use:

    with NwClient(["./build/tools/noisewin", "serve", "--demo", "bus"]) as c:
        print(c.request("violations", limit=5))

    with NwClient(SocketTransport("unix:/tmp/noisewin.sock")) as c:
        print(c.request("hello"))

Script use (the CI smoke tests): drives a full conversation against a demo
session — query violations, apply an ECO edit, check the noise moved,
undo, check the restore is bit-identical — and exits non-zero on any
protocol error or broken invariant.

    python3 tools/nwclient.py --bin ./build/tools/noisewin --demo bus
    python3 tools/nwclient.py --connect unix:/tmp/noisewin.sock --clients 4
    python3 tools/nwclient.py --connect tcp:127.0.0.1:9191 --progress-cancel
    python3 tools/nwclient.py --connect unix:/tmp/noisewin.sock --shutdown
"""

from __future__ import annotations

import argparse
import json
import socket
import subprocess
import sys
import threading
import time


class ProtocolError(RuntimeError):
    """Server answered ok=false; carries the structured code and message."""

    def __init__(self, code: str, message: str, retry_after_ms: float = 0.0):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.retry_after_ms = retry_after_ms


class StdioTransport:
    """A noisewin serve child process driven over its stdin/stdout pipes."""

    def __init__(self, argv: list[str]):
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def send_line(self, line: str) -> None:
        assert self._proc.stdin is not None
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()

    def recv_line(self) -> str:
        assert self._proc.stdout is not None
        return self._proc.stdout.readline()

    def close(self) -> int | None:
        """EOF the server and return its exit code."""
        if self._proc.stdin is not None:
            self._proc.stdin.close()
        return self._proc.wait(timeout=120)


class SocketTransport:
    """One daemon connection over unix:<path> or tcp:<host>:<port>."""

    def __init__(self, spec: str, timeout_s: float = 300.0):
        if spec.startswith("unix:"):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.connect(spec[len("unix:"):])
        elif spec.startswith("tcp:"):
            host, _, port = spec[len("tcp:"):].rpartition(":")
            self._sock = socket.create_connection((host, int(port)))
        else:
            raise ValueError(f"--connect wants unix:<path> or tcp:<host>:<port>, got {spec!r}")
        self._sock.settimeout(timeout_s)
        self._rfile = self._sock.makefile("r", encoding="utf-8", newline="\n")

    def send_line(self, line: str) -> None:
        try:
            self._sock.sendall((line + "\n").encode("utf-8"))
        except (BrokenPipeError, ConnectionResetError):
            # The daemon may have shed this connection and closed already;
            # its parting `overloaded` line is still readable.
            pass

    def recv_line(self) -> str:
        return self._rfile.readline()

    def close(self) -> int | None:
        self._rfile.close()
        self._sock.close()
        return None


class NwClient:
    """Synchronous request/response client over a serve pipe or a daemon socket."""

    def __init__(self, transport: StdioTransport | SocketTransport | list[str]):
        if isinstance(transport, list):
            transport = StdioTransport(transport)
        self._t = transport
        self._next_id = 0
        self.events_seen = 0  # progress notifications skipped by request_raw

    def __enter__(self) -> "NwClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def request_raw(self, cmd: str, args: dict | None = None) -> dict:
        """One request, one response line; returns the whole envelope.

        A server running with --progress interleaves {"event":"progress",...}
        notification lines with responses; those are counted (events_seen)
        and skipped — responses alone drive the request/response pairing.
        """
        self._next_id += 1
        req = {"id": self._next_id, "cmd": cmd}
        if args:
            req["args"] = args
        self._t.send_line(json.dumps(req))
        while True:
            line = self._t.recv_line()
            if not line:
                raise RuntimeError(f"server closed the pipe during '{cmd}'")
            resp = json.loads(line)
            if "event" in resp:
                self.events_seen += 1
                continue
            break
        if resp.get("id") != self._next_id:
            raise RuntimeError(f"response id {resp.get('id')} != {self._next_id}")
        return resp

    def request(self, cmd: str, **args) -> dict:
        """One command; returns the data payload or raises ProtocolError."""
        resp = self.request_raw(cmd, args or None)
        if not resp.get("ok"):
            err = resp.get("error") or {}
            raise ProtocolError(
                err.get("code", "?"), err.get("message", "?"),
                err.get("retry_after_ms", 0.0),
            )
        return resp["data"]

    def request_retry(self, cmd: str, max_tries: int = 40, **args) -> dict:
        """Like request, but honors `overloaded` backpressure: sleeps the
        server's retry_after_ms hint and re-issues. A well-behaved daemon
        client always retries analysis commands this way."""
        for _ in range(max_tries):
            try:
                return self.request(cmd, **args)
            except ProtocolError as e:
                if e.code != "overloaded":
                    raise
                time.sleep(max(e.retry_after_ms, 1.0) / 1000.0)
        raise RuntimeError(f"'{cmd}' still overloaded after {max_tries} retries")

    def close(self) -> int | None:
        return self._t.close()


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def open_transport(args) -> StdioTransport | SocketTransport:
    if args.connect:
        return SocketTransport(args.connect)
    argv = [args.bin, "serve", "--demo", args.demo]
    if args.stats_json:
        argv += ["--stats-json", args.stats_json]
    if args.trace_out:
        argv += ["--trace-out", args.trace_out]
    if args.slow_ms:
        argv += ["--slow-ms", args.slow_ms]
    return StdioTransport(argv)


def check_hello(c: NwClient, daemon: bool) -> dict:
    hello = c.request("hello")
    check(hello["protocol"] == 1, f"protocol v1, design '{hello['design']}'")
    check(
        hello.get("stats_schema") == 6,
        f"server {hello.get('version', '?')} ({hello.get('build', '?')}) "
        f"speaks stats schema v{hello.get('stats_schema')}",
    )
    features = hello.get("features", [])
    check("stats" in features, f"hello advertises features {features}")
    limits = hello.get("limits", {})
    check(limits.get("max_line_bytes", 0) > 0, "hello advertises max_line_bytes")
    if daemon:
        check(hello.get("daemon") is True, "hello advertises daemon mode")
        check("watch" in features, "daemon advertises the watch feature")
        check(hello.get("transport") in ("unix", "tcp"),
              f"transport is {hello.get('transport')!r}")
        check(hello.get("connection", 0) >= 1, "hello carries the connection id")
        for key in ("max_queued", "max_connections", "analysis_slots"):
            check(key in limits, f"hello limits carry '{key}'")
    else:
        check(hello.get("transport") == "stdio", "transport is stdio")
        check(hello.get("daemon") is False, "daemon flag off under serve")
    return hello


def run_profiler_roundtrip(c: NwClient) -> None:
    """start → (caller's work happens after) → used only under stdio serve:
    the sampling profiler is process-global, so concurrent daemon sessions
    must not fight over it."""
    prof = c.request("profile", action="start", hz=1997)
    check(prof["running"] and prof["hz"] == 1997,
          f"profiler started ({prof['hz']} Hz)")
    try:
        c.request("profile", action="start")
        check(False, "second profile start must be rejected")
    except ProtocolError as e:
        check(e.code == "bad_args", f"double start -> {e.code}")


def finish_profiler_roundtrip(c: NwClient) -> None:
    dump = c.request("profile", action="dump", limit=50)
    check(isinstance(dump["entries"], list), f"profile dump answers "
          f"({dump['samples']:.0f} samples, {dump.get('stacks', 0)} stacks)")
    for entry in dump["entries"]:
        check("stack" in entry and entry.get("count", 0) > 0,
              "dump entries carry stack + positive count")
        check(entry["stack"].startswith("server"),
              f"stacks rooted at the server thread ({entry['stack']!r})")
    stopped = c.request("profile", action="stop")
    check(not stopped["running"], "profiler stopped")
    status = c.request("profile", action="status")
    check(not status["running"] and status["samples"] == stopped["samples"],
          "status keeps the aggregate after stop")


def run_scenario(c: NwClient, args, daemon: bool) -> None:
    """The ECO conversation: baseline → edit → re-check → undo → bit-identical."""
    check_hello(c, daemon)
    if not daemon:
        run_profiler_roundtrip(c)

    baseline = c.request_retry("violations", limit=5)
    noise_before = c.request_retry("net_noise", net=args.net)
    check("total_peak" in noise_before, f"net_noise({args.net}) answers")

    # ECO: crank the coupling between two neighbouring nets.
    edit = c.request(
        "set_coupling_cap", net_a=args.net, net_b=args.coupled, cap=80e-15
    )
    check(edit["epoch"] > 0, f"edit accepted (epoch {edit['epoch']})")

    noise_after = c.request_retry("net_noise", net=args.net)
    check(
        noise_after["total_peak"] > noise_before["total_peak"],
        "stronger coupling raised the victim's noise "
        f"({noise_before['total_peak']:.6g} -> {noise_after['total_peak']:.6g})",
    )

    # Undo must restore the pre-edit result bit-for-bit (the session
    # serves it from its result cache keyed by options-digest + epoch).
    undo = c.request("undo")
    check(undo["undone"] and undo["epoch"] == 0, "undo restored epoch 0")
    noise_restored = c.request_retry("net_noise", net=args.net)
    check(
        noise_restored == noise_before,
        "post-undo noise is bit-identical to the pre-edit answer",
    )
    restored = c.request_retry("violations", limit=5)
    check(
        restored == baseline,
        "post-undo violations are bit-identical to the baseline",
    )

    # Structured errors, not crashes.
    try:
        c.request("net_noise", net="definitely_not_a_net")
        check(False, "unknown net must be rejected")
    except ProtocolError as e:
        check(e.code == "not_found", f"unknown net -> {e.code}")

    # Request-scoped observability: every command above was timed and
    # id-stamped; with a low --slow-ms threshold they land in the slow log.
    slow = c.request("slowlog")
    check(
        slow["enabled"] and isinstance(slow["entries"], list),
        f"slowlog answers ({slow.get('recorded', 0)} recorded, "
        f"threshold {slow.get('threshold_ms', '?')} ms)",
    )
    if args.slow_ms and float(args.slow_ms) <= 0.01:
        check(slow["recorded"] > 0, "low threshold caught slow requests")

    # Leave one edit applied so the exported stats show a live undo
    # journal (session_journal_bytes > 0 in the resources section).
    parting = c.request(
        "set_coupling_cap", net_a=args.net, net_b=args.coupled, cap=60e-15
    )
    check(parting["epoch"] > 0, f"parting edit applied (epoch {parting['epoch']})")
    reanalyzed = c.request_retry("net_noise", net=args.net)
    check("total_peak" in reanalyzed, "post-edit query re-analyzed incrementally")

    if not daemon:
        finish_profiler_roundtrip(c)

    stats = c.request("stats")
    counters = stats["counters"]
    # A daemon session adopts the prewarmed seed: its base analysis was
    # never run locally, so full analyses stay 0; stdio serve pays one.
    expected_full = 0 if daemon else 1
    check(
        counters["session_full_analyses"] == expected_full,
        f"exactly {expected_full} full analyses "
        f"({counters['session_incremental_analyses']} incremental, "
        f"{counters['session_cache_hits']} cache hits)",
    )
    check(counters["session_cache_hits"] >= 1, "undo was served from the cache")


def run_concurrent(args) -> None:
    """N clients in parallel against one daemon, each editing its own net.

    Sessions are isolated copy-on-write overlays, so every client sees its
    private edits and nobody else's; the per-client invariants of the serial
    scenario must all hold under interleaving."""
    nets = pick_edit_nets(args)
    results: list[Exception | None] = [None] * args.clients

    def one_client(k: int) -> None:
        try:
            with NwClient(SocketTransport(args.connect)) as c:
                check_hello(c, daemon=True)
                net = nets[k % len(nets)]
                baseline = c.request_retry("violations", limit=10)
                before = c.request_retry("net_noise", net=net)
                edit = c.request("scale_net_parasitics",
                                 net=net, cap_factor=1.4, res_factor=1.1)
                if edit["epoch"] != 1:
                    raise RuntimeError(f"client {k}: epoch {edit['epoch']} != 1")
                after = c.request_retry("net_noise", net=net)
                if after == before:
                    raise RuntimeError(f"client {k}: edit had no effect on {net}")
                c.request_retry("explain", net=net)
                undo = c.request("undo")
                if not undo["undone"] or undo["epoch"] != 0:
                    raise RuntimeError(f"client {k}: undo failed")
                restored = c.request_retry("violations", limit=10)
                if restored != baseline:
                    raise RuntimeError(f"client {k}: post-undo violations differ")
                stats = c.request("stats")
                if stats["counters"]["session_full_analyses"] != 0:
                    raise RuntimeError(f"client {k}: ran a full analysis (seed unused)")
        except BaseException as e:  # incl. SystemExit from check(); re-raised below
            results[k] = e

    threads = [threading.Thread(target=one_client, args=(k,))
               for k in range(args.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    failures = [f"client {k}: {e}" for k, e in enumerate(results) if e is not None]
    check(not failures, "all concurrent clients passed\n" + "\n".join(failures))
    print(f"nwclient concurrent: {args.clients} clients passed")


def pick_edit_nets(args) -> list[str]:
    """Distinct edit targets, one per client, taken from the live violation
    list (falling back to the worst endpoint slacks on clean designs) so the
    scenario works on any demo design (bus nets are w<k>, the random-logic
    designs use generated names)."""
    nets: list[str] = []
    with NwClient(SocketTransport(args.connect)) as c:
        data = c.request_retry("violations", limit=64)
        for v in data["violations"]:
            if v["net"] not in nets:
                nets.append(v["net"])
        if not nets:
            data = c.request_retry("slack", limit=64)
            for s in data["endpoints"]:
                if s["net"] not in nets:
                    nets.append(s["net"])
    check(len(nets) >= 1, f"daemon reports editable nets ({len(nets)})")
    return nets


def _pipelined_cancel_attempt(t, send, attempt: int):
    """One pipelined analyze+cancel round against a daemon connection.

    Moves the options digest with a fresh `refine` value (so the query in
    front of the cancel always runs a full analysis rather than replaying
    the seed), then pipelines `violations` + `cancel` back-to-back.

    Both responses must always arrive — a lost cancel may never hang the
    connection. Returns (landed, events): `landed` is True when the cancel
    was consumed mid-analysis (cancelled ack + structured 'cancelled'
    error); on a design whose analysis completes in microseconds the
    analysis can outrun the reader thread, in which case both requests
    must have completed normally.
    """
    refine = 8 + attempt
    send({"id": 100 + attempt, "cmd": "set_option",
          "args": {"name": "refine", "value": str(refine)}})
    msg = json.loads(t.recv_line())
    check(msg.get("id") == 100 + attempt and msg.get("ok"),
          f"digest moved off the seed (refine {refine}): next query analyzes")
    send({"id": 1, "cmd": "violations"})
    send({"id": 2, "cmd": "cancel"})
    events = 0
    responses: dict[int, dict] = {}
    while 1 not in responses or 2 not in responses:
        line = t.recv_line()
        if not line:
            check(False, "server closed the pipe mid-scenario")
        msg = json.loads(line)
        if msg.get("event") == "progress":
            events += 1
            for key in ("phase", "completed", "total"):
                check(key in msg, f"progress event carries '{key}'")
        else:
            responses[msg.get("id")] = msg
    cancel, analyze = responses[2], responses[1]
    check(cancel.get("ok"), "cancel always acknowledged out-of-band")
    landed = cancel["data"].get("cancelled") is True
    if landed:
        check(
            not analyze.get("ok")
            and analyze.get("error", {}).get("code") == "cancelled",
            "analyzing request failed with the structured 'cancelled' error",
        )
    else:
        check(analyze.get("ok"),
              "analysis that outran the cancel completed normally")
    return landed, events


def run_progress_cancel(args) -> None:
    """The streaming scenario: analyze with --progress, cancel mid-flight.

    Stdio: waits for at least one progress event before sending the cancel,
    so the cancel provably lands inside the running analysis. Verifies the
    out-of-band cancel response, the "cancelled" error on the analyzing
    request, that the session kept its pre-analyze state (epoch 0, nothing
    committed), and that the next query succeeds.

    Under a daemon (--connect), the session starts from the prewarmed seed,
    so each attempt first moves the options digest (`refine`) to force a
    real analysis, then pipelines the cancel right behind it. On a design
    whose analysis finishes in microseconds the analysis can legitimately
    outrun the pipelined cancel, so the attempt is retried (fresh refine
    value each time) until a cancel lands mid-analysis; every attempt still
    asserts the connection answers both requests. CI runs this against
    logic10k, where the first attempt lands.
    """
    daemon = bool(args.connect)
    if daemon:
        t = SocketTransport(args.connect)
    else:
        t = StdioTransport([args.bin, "serve", "--demo", args.demo, "--progress"])

    def send(req: dict) -> None:
        t.send_line(json.dumps(req))

    completed = 0  # daemon attempts where the analysis outran the cancel
    if daemon:
        max_attempts = 10
        landed = False
        for attempt in range(max_attempts):
            landed, _ = _pipelined_cancel_attempt(t, send, attempt)
            if landed:
                break
            completed += 1
        check(landed,
              f"cancel landed mid-analysis within {max_attempts} attempts")
    else:
        send({"id": 1, "cmd": "violations"})
        events = 0
        cancel_sent = False
        responses: dict[int, dict] = {}
        while 1 not in responses or 2 not in responses:
            line = t.recv_line()
            if not line:
                check(False, "server closed the pipe mid-scenario")
            msg = json.loads(line)
            if msg.get("event") == "progress":
                events += 1
                for key in ("phase", "completed", "total"):
                    check(key in msg, f"progress event carries '{key}'")
                if not cancel_sent:
                    send({"id": 2, "cmd": "cancel"})
                    cancel_sent = True
            else:
                responses[msg.get("id")] = msg
        check(events >= 1, f"progress events streamed before cancel ({events} seen)")
        cancel = responses[2]
        check(
            cancel.get("ok") and cancel["data"].get("cancelled") is True,
            "cancel acknowledged out-of-band (cancelled: true)",
        )
        analyze = responses[1]
        check(
            not analyze.get("ok")
            and analyze.get("error", {}).get("code") == "cancelled",
            "analyzing request failed with the structured 'cancelled' error",
        )

    # The session must be bit-identical to its pre-cancel state: the
    # cancelled analysis committed nothing (only analyses that outran the
    # cancel count), and no edit ever landed.
    send({"id": 3, "cmd": "stats"})
    while True:
        msg = json.loads(t.recv_line())
        if msg.get("event") != "progress":
            break
    check(msg.get("ok"), "stats answers after the cancelled analysis")
    counters = msg["data"]["counters"]
    gauges = msg["data"]["gauges"]
    check(
        counters.get("session_full_analyses", -1) == completed,
        f"cancelled analysis was never committed ({completed} full analyses)",
    )
    check(gauges.get("session_epoch", -1) == 0, "epoch unchanged (0)")

    if daemon:
        # Back onto the seed digest (one undo per refine bump); the
        # re-issued query is served instantly and other connections were
        # never disturbed.
        for k in range(completed + 1):
            send({"id": 200 + k, "cmd": "undo"})
            while True:
                msg = json.loads(t.recv_line())
                if msg.get("event") != "progress":
                    break
            check(msg.get("id") == 200 + k and msg.get("ok"),
                  "refine option undone")

    # The same query succeeds when allowed to run to completion.
    send({"id": 4, "cmd": "violations"})
    post_events = 0
    while True:
        msg = json.loads(t.recv_line())
        if msg.get("event") == "progress":
            post_events += 1
            continue
        break
    check(
        msg.get("id") == 4 and msg.get("ok"),
        f"re-issued analyze completes ({post_events} progress events)",
    )
    rc = t.close()
    check(rc in (0, None), f"server exited cleanly (rc={rc})")
    print("nwclient progress/cancel: all checks passed")


def run_watch(args) -> None:
    """The streaming-telemetry scenario: subscribe, collect N stats events,
    unsubscribe, and verify the stream went quiet.

    The daemon's contract makes "quiet" checkable without sleeping: the
    watch-stop response is only written after the streamer thread joined,
    so every line after it belongs to request/response traffic. We still
    idle a few periods before probing, so a leaky streamer would have had
    every chance to emit."""
    check(bool(args.connect), "--watch needs --connect")
    t = SocketTransport(args.connect)

    def send(req: dict) -> None:
        t.send_line(json.dumps(req))

    period_ms = 50
    want_events = 5
    send({"id": 1, "cmd": "watch",
          "args": {"action": "start", "period_ms": period_ms}})
    events = []
    sub = None
    while sub is None or len(events) < want_events:
        line = t.recv_line()
        if not line:
            check(False, "daemon closed mid-watch")
        msg = json.loads(line)
        if msg.get("event") == "stats":
            events.append(msg)
            continue
        if msg.get("event"):
            continue
        sub = msg
        check(sub.get("ok") and sub["data"].get("watching") is True,
              f"watch subscribed at {sub['data'].get('period_ms')} ms "
              f"(floor {sub['data'].get('min_period_ms')} ms)")
    seqs = [e.get("seq") for e in events]
    check(seqs == sorted(seqs) and len(set(seqs)) == len(seqs),
          f"event seq strictly increases ({seqs})")
    times = [e.get("t_ms", -1.0) for e in events]
    check(all(b >= a for a, b in zip(times, times[1:])),
          "event t_ms is nondecreasing")
    for e in events:
        live = e.get("daemon", {})
        for key in ("queue_depth", "active", "inflight", "rss_mb"):
            check(key in live, f"stats event carries '{key}'")

    send({"id": 2, "cmd": "watch", "args": {"action": "stop"}})
    while True:
        msg = json.loads(t.recv_line())
        if msg.get("event"):
            continue
        break
    check(msg.get("ok") and msg["data"].get("watching") is False,
          "watch unsubscribed")

    time.sleep(3 * period_ms / 1000.0)
    send({"id": 3, "cmd": "hello"})
    line = t.recv_line()
    msg = json.loads(line)
    check("event" not in msg and msg.get("id") == 3,
          "no further events after unsubscribe (next line is the response)")
    t.close()
    print(f"nwclient watch: {len(events)} events streamed, clean teardown")


def run_shutdown(args) -> None:
    """Ask the daemon to drain and verify the connection winds down."""
    check(bool(args.connect), "--shutdown needs --connect")
    t = SocketTransport(args.connect)
    t.send_line(json.dumps({"id": 1, "cmd": "shutdown"}))
    while True:
        line = t.recv_line()
        if not line:
            check(False, "daemon closed before acknowledging shutdown")
        msg = json.loads(line)
        if "event" in msg:
            continue
        break
    check(msg.get("ok") and msg["data"].get("draining") is True,
          "shutdown acknowledged (draining: true)")
    check(t.recv_line() == "", "connection closed after the drain ack")
    t.close()
    print("nwclient shutdown: daemon draining")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin", default="./build/tools/noisewin", help="noisewin binary")
    ap.add_argument("--demo", default="bus",
                    help="demo design (bus|logic|logic1k|logic10k|pipeline)")
    ap.add_argument("--connect", default="",
                    help="daemon endpoint (unix:<path> | tcp:<host>:<port>) "
                         "instead of spawning a serve child")
    ap.add_argument("--clients", type=int, default=0,
                    help="run N concurrent clients against --connect")
    ap.add_argument("--stats-json", default="", help="per-session stats artifact")
    ap.add_argument("--trace-out", default="", help="server-side Chrome trace artifact")
    ap.add_argument("--slow-ms", default="", help="slow-request threshold passed to serve")
    ap.add_argument("--net", default="w1", help="net to edit in the scenario")
    ap.add_argument("--coupled", default="w2", help="net coupled to --net")
    ap.add_argument("--progress-cancel", action="store_true",
                    help="run the streaming progress + mid-analyze cancel "
                         "scenario instead of the ECO conversation")
    ap.add_argument("--watch", action="store_true",
                    help="run the streaming-telemetry scenario: subscribe, "
                         "collect stats events, unsubscribe, verify silence")
    ap.add_argument("--shutdown", action="store_true",
                    help="send the daemon a shutdown request and exit")
    args = ap.parse_args()

    if args.shutdown:
        run_shutdown(args)
        return
    if args.watch:
        run_watch(args)
        return
    if args.progress_cancel:
        run_progress_cancel(args)
        return
    if args.clients > 0:
        check(bool(args.connect), "--clients needs --connect")
        run_concurrent(args)
        return

    daemon = bool(args.connect)
    with NwClient(open_transport(args)) as c:
        run_scenario(c, args, daemon)
        if not daemon:
            rc = c.close()
            check(rc == 0, f"server exited cleanly (rc={rc})")

    print("nwclient smoke: all checks passed")


if __name__ == "__main__":
    main()
