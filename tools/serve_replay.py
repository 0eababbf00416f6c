#!/usr/bin/env python3
"""Black-box load/chaos replay client for `tgdkit serve`.

CI drives the daemon through this script in three modes:

  load          Start the daemon, generate a deterministic workload, and
                replay it from N concurrent connections. Every response
                must parse, echo its request id, and be either "ok" or a
                typed "overloaded" shed. Then SIGTERM, wait for a clean
                drain, and audit the ledger.
  kill-restart  Same workload, but SIGKILL the daemon mid-flight, then
                restart it on the same ledger and replay a second batch.
                The combined ledger must parse line-for-line (the
                restarted daemon heals any torn tail) and no request id
                may be answered twice.
  chaos         Interleave malformed, truncated, and oversized frames,
                and well-formed frames carrying malformed programs, with
                valid pings. The daemon must answer every ping and
                survive to drain cleanly.

The ledger audit is the point: a "response" record is written before the
bytes are enqueued, so `answered ids are unique` proves no request was
double-answered even across a crash. Stdlib only; exit 0 iff every
assertion held.
"""

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

DEPS = "every: Emp(e) -> exists m . Mgr(e, m) .\n"

MAX_SHED_RETRIES = 6
DEFAULT_RETRY_AFTER_MS = 50


def fail(message):
    print(f"serve_replay: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def start_daemon(args, extra=None):
    cmd = [args.binary, "serve", "--socket", args.socket,
           "--ledger", args.ledger, "--serve-threads", str(args.threads)]
    if args.max_inflight:
        cmd += ["--max-inflight", str(args.max_inflight)]
    cmd += extra or []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out, err = proc.communicate()
            fail(f"daemon exited {proc.returncode} before ready: "
                 f"{err.decode(errors='replace')}")
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                probe.connect(args.socket)
            return proc
        except OSError:
            time.sleep(0.05)
    proc.kill()
    fail("daemon never opened its socket")


def stop_daemon(proc, expect_clean=True):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon ignored SIGTERM for 30s")
    out, err = proc.communicate()
    if expect_clean and proc.returncode != 0:
        fail(f"drain exited {proc.returncode}: "
             f"{err.decode(errors='replace')}")
    return out.decode(errors="replace"), err.decode(errors="replace")


def call(sock_path, frame_bytes, read_reply=True, timeout=30.0):
    """Sends one raw frame; returns the reply line (bytes) or None."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(timeout)
        conn.connect(sock_path)
        conn.sendall(frame_bytes)
        if not read_reply:
            return None
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            reply += chunk
        return reply


def make_request(rid, shared):
    """One classify request; `shared` rulesets recur across ids (the same
    quarantine key on several lanes at once), others are unique per id."""
    ruleset = DEPS if shared else f"p{rid.replace('-', 'x')}(X) -> q(X) .\n"
    return {"id": rid, "command": "classify", "args": ["deps.tgd"],
            "file_names": ["deps.tgd"], "file_contents": [ruleset]}


class ShedStats:
    """Thread-safe tally of overload sheds and the retry pacing audit.

    Every shed reply carries a `retry_after_ms` hint; the client must not
    come back sooner.  Each retry records (hint_ms, actual_wait_ms) so the
    caller can assert the busy-loop never happened: an actual wait below
    the hint means the backoff is broken and the client is hammering an
    overloaded daemon.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.sheds = 0
        self.retries = 0
        self.exhausted = 0
        self.early = []  # (rid, hint_ms, actual_ms) retries that jumped the gun

    def record_wait(self, rid, hint_ms, actual_ms):
        with self.lock:
            self.sheds += 1
            self.retries += 1
            if actual_ms < hint_ms:
                self.early.append((rid, hint_ms, actual_ms))

    def record_exhausted(self):
        with self.lock:
            self.sheds += 1
            self.exhausted += 1

    def assert_no_busy_loop(self):
        if self.early:
            rid, hint, actual = self.early[0]
            fail(f"busy-loop: {len(self.early)} retries fired before the "
                 f"retry_after_ms hint, first {rid}: waited {actual:.1f}ms "
                 f"< hinted {hint}ms")

    def summary(self):
        return (f"{self.sheds} sheds, {self.retries} retries, "
                f"{self.exhausted} given up")


def replay_batch(args, prefix, count, results, errors, sheds=None):
    """Replays `count` requests per worker thread; collects answered ids.

    An "overloaded" shed is retried with the SAME request id — the daemon
    never admitted it, so the ledger's answered-once audit still holds —
    sleeping at least the daemon's `retry_after_ms` hint plus jitter, at
    most MAX_SHED_RETRIES times before giving up on that id.
    """
    stats = sheds if sheds is not None else ShedStats()
    jitter = random.Random(0xC0FFEE)  # seeded: runs stay reproducible

    def worker(t):
        for r in range(count):
            rid = f"{prefix}-{t}-{r}"
            frame = json.dumps(make_request(rid, shared=(r % 3 == 0)))
            for attempt in range(1 + MAX_SHED_RETRIES):
                try:
                    reply = call(args.socket, frame.encode() + b"\n")
                except OSError as exc:
                    errors.append(f"{rid}: {exc}")
                    return
                if not reply:
                    errors.append(f"{rid}: connection closed without reply")
                    break
                try:
                    response = json.loads(reply)
                except ValueError:
                    errors.append(f"{rid}: unparseable reply {reply!r}")
                    break
                status = response.get("status")
                if status == "overloaded":
                    if attempt == MAX_SHED_RETRIES:
                        stats.record_exhausted()
                        break
                    hint_ms = response.get("retry_after_ms",
                                           DEFAULT_RETRY_AFTER_MS)
                    # Sleep >= the hint; the jitter factor in [1, 1.5)
                    # de-synchronizes the retrying clients.
                    shed_at = time.monotonic()
                    time.sleep(hint_ms / 1000.0 *
                               (1.0 + 0.5 * jitter.random()))
                    waited_ms = (time.monotonic() - shed_at) * 1000.0
                    stats.record_wait(rid, hint_ms, waited_ms)
                    continue
                if status != "ok" or response.get("id") != rid:
                    errors.append(f"{rid}: unexpected reply {reply!r}")
                    break
                if "figure-1" not in response.get("stdout", ""):
                    errors.append(f"{rid}: wrong classify output")
                    break
                results.append(rid)
                break

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(args.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return stats


def audit_ledger(path, expect_drain):
    """Every line must parse as flat JSON; response ids must be unique.
    Returns the set of answered ids."""
    answered = []
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                fail(f"ledger line {lineno} is empty")
            try:
                record = json.loads(line)
            except ValueError:
                fail(f"ledger line {lineno} does not parse: {line!r}")
            records.append(record)
            if record.get("type") == "response":
                answered.append(record["id"])
    if not records or records[0].get("type") != "serve":
        fail("ledger does not start with a serve header")
    duplicates = {rid for rid in answered if answered.count(rid) > 1}
    if duplicates:
        fail(f"request ids answered twice: {sorted(duplicates)[:5]}")
    if expect_drain and records[-1].get("type") != "drain":
        fail(f"ledger does not end with a drain record: {records[-1]}")
    return set(answered)


def mode_load(args):
    proc = start_daemon(args)
    results, errors = [], []
    sheds = replay_batch(args, "load", args.requests, results, errors)
    out, _ = stop_daemon(proc)
    if errors:
        fail(f"{len(errors)} bad replies, first: {errors[0]}")
    if len(results) < args.clients * args.requests // 2:
        fail(f"only {len(results)} requests answered ok")
    sheds.assert_no_busy_loop()
    answered = audit_ledger(args.ledger, expect_drain=True)
    missing = set(results) - answered
    if missing:
        fail(f"answered on the wire but absent from ledger: "
             f"{sorted(missing)[:5]}")
    if "drained" not in out:
        fail(f"no drain summary on stdout: {out!r}")
    print(f"serve_replay: load ok — {len(results)} answered, "
          f"{len(answered)} ledgered, {sheds.summary()}")


def mode_kill_restart(args):
    proc = start_daemon(args)
    results, errors = [], []
    replay = threading.Thread(
        target=replay_batch, args=(args, "k1", args.requests, results, errors))
    replay.start()
    time.sleep(args.kill_after)
    proc.kill()  # SIGKILL: no drain, torn tail is fair game
    proc.wait()
    replay.join()
    # In-flight replies legitimately fail at the kill point; what must
    # NOT happen is a double answer, which the combined ledger proves.
    proc = start_daemon(args)
    results2, errors2 = [], []
    sheds = replay_batch(args, "k2", args.requests, results2, errors2)
    stop_daemon(proc)
    if errors2:
        fail(f"post-restart replies broken, first: {errors2[0]}")
    if not results2:
        fail("restarted daemon answered nothing")
    sheds.assert_no_busy_loop()
    answered = audit_ledger(args.ledger, expect_drain=True)
    missing = set(results2) - answered
    if missing:
        fail(f"post-restart answers missing from ledger: "
             f"{sorted(missing)[:5]}")
    print(f"serve_replay: kill-restart ok — {len(results)} pre-kill, "
          f"{len(results2)} post-restart, {len(answered)} unique ledgered, "
          f"{sheds.summary()}")


CHAOS_FRAMES = [
    b"this is not json\n",
    b"{\n",
    b'{"command":"classify"}\n',                      # missing id
    b'{"id":"c1"}\n',                                  # missing command
    b'{"id":"c2","command":"classify","file_names":["a"],'
    b'"file_contents":[]}\n',                          # mismatched arrays
    b'{"id":"c3","command":"rm -rf"}\n',               # unknown command
    b'{"id":"c4","command":"classify","args":{"nested":true}}\n',
    b'{"id":"big","command":"classify","args":["' + b"A" * (4 << 20) +
    b'"]}\n',                                          # oversized frame
    # Well-formed frames whose programs are hostile: a 0-ary head and a
    # 0-ary fact are parse errors (exit 2), not a dead daemon.
    b'{"id":"c5","command":"classify","args":["d.tgd"],'
    b'"file_names":["d.tgd"],"file_contents":["P(x) -> R() .\\n"]}\n',
    b'{"id":"c6","command":"certain","args":["d.tgd","i.facts",'
    b'"ans(x) :- P(x)."],"file_names":["d.tgd","i.facts"],'
    b'"file_contents":["P(x) -> Q(x) .\\n","R() .\\n"]}\n',
]


def mode_chaos(args):
    proc = start_daemon(args, extra=["--max-frame-kb", "64"])
    ping = b'{"id":"p","command":"ping"}\n'
    for i, frame in enumerate(CHAOS_FRAMES):
        try:
            # Wait for the reply, so a frame that kills the daemon does so
            # before the ping below.
            call(args.socket, frame)
        except OSError:
            pass  # the daemon may slam the door; it must not die
        # Truncated frame: bytes with no newline, then abrupt close.
        try:
            call(args.socket, frame[:max(1, len(frame) // 2)].rstrip(b"\n"),
                 read_reply=False)
        except OSError:
            pass
        try:
            reply = call(args.socket, ping)
        except OSError:
            reply = None
        if not reply or json.loads(reply).get("status") != "ok":
            fail(f"daemon stopped answering pings after chaos frame {i}: "
                 f"{reply!r}")
    real = json.dumps(make_request("chaos-real", shared=True))
    reply = json.loads(call(args.socket, real.encode() + b"\n"))
    if reply.get("status") != "ok" or "figure-1" not in reply.get(
            "stdout", ""):
        fail(f"real request broken after chaos: {reply}")
    stop_daemon(proc)
    audit_ledger(args.ledger, expect_drain=True)
    print("serve_replay: chaos ok — daemon survived "
          f"{2 * len(CHAOS_FRAMES)} hostile frames")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True)
    parser.add_argument("--mode", required=True,
                        choices=["load", "kill-restart", "chaos"])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--ledger", required=True)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=20,
                        help="requests per client thread")
    parser.add_argument("--kill-after", type=float, default=0.3,
                        help="seconds before SIGKILL in kill-restart mode")
    parser.add_argument("--max-inflight", type=int, default=0,
                        help="cap the daemon's admission window (0 = its "
                             "default); low values force overload sheds so "
                             "the retry/backoff path is actually exercised")
    args = parser.parse_args()
    {"load": mode_load, "kill-restart": mode_kill_restart,
     "chaos": mode_chaos}[args.mode](args)


if __name__ == "__main__":
    main()
