#!/usr/bin/env python3
"""perfbench: tgdkit's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds, in
Release, the `tgdkit` binary through the repository's own root project
into .bench_build/repo/, and the traced-replay harness through
perfbench/CMakeLists.txt into .bench_build/harness/; later runs only
rebuild what changed. With --trace 0 it runs the workload through
the real `tgdkit` binary (or a resident `tgdkit serve`) for S seconds,
checks every output, and prints the end-to-end metrics; with --trace 1 it
replays the same inputs in-process through perfbench_trace and prints
the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# The measured binary, built by the repository's root project.
REPO_BUILD = BUILD / "repo"
TGDKIT = REPO_BUILD / "tools" / "tgdkit"
# The harness, built by perfbench/CMakeLists.txt.
HARNESS_BUILD = BUILD / "harness"
TRACE = HARNESS_BUILD / "perfbench_trace"

WORKLOADS = ("exchange", "closure", "exchange-spill", "serve-mix")
# The CLI workloads run the chase at one lane. On a 4-vCPU KVM guest the
# lane pool's parallelism comes and goes with host load: closure at
# --threads 4 ran with cpu = wall (no lane ever ran) for minutes at a
# time, 1.2 s a sample, then at cpu = 1.5 x wall, 0.8 s, so its run
# medians were bimodal. The traced run times the rounds again at
# TRACE_LANES lanes for chase.speedup_4v1 and chase.lane_util.
TRACE_LANES = 4
# Set-up spawns per measured sample, interleaved with the samples so
# set-up sees the same machine conditions as the work it precedes.
SETUP_PER_SAMPLE = 3
SERVE_LANES = 3
# A reply or a drain slower than this counts as failed (the daemon's own
# default request deadline is 10 s).
REPLY_TIMEOUT_S = 30
SERVE_CONNECTIONS = 3
SESSION_REQUESTS = 300
# Lengths for the analyze.slope fit (AnalyzeSo time vs. chain links).
SLOPE_LINKS = (16, 32, 64, 128, 256, 512)

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
    "req_p50_ms": "ms", "req_per_s": "1/s",
}
PER_LAYER_UNITS = {
    "parse.busy_s": "s", "parse.facts_per_s": "1/s",
    "dep.skolemize_s": "s", "dep.parts": "count",
    "chase.load_s": "s", "chase.rounds_s": "s", "chase.rounds_cpu_s": "s",
    "chase.slowest_round_s": "s", "chase.rounds": "count",
    "chase.facts_created": "count", "chase.steps": "count",
    "chase.facts_per_kstep": "ratio", "chase.lane_util": "ratio",
    "chase.speedup_4v1": "ratio",
    "homo.match_s": "s", "homo.matches": "count",
    "homo.matches_per_s": "1/s",
    "term.arena_nodes": "count", "term.arena_mb": "MiB",
    "data.instance_mb": "MiB", "data.index_mb": "MiB",
    "data.bytes_per_fact": "B", "data.insert_s": "s",
    "data.inserts_per_s": "1/s", "data.print_s": "s",
    "data.spill_evictions": "count", "data.spill_faults": "count",
    "data.spill_segment_writes": "count",
    "api.run_s": "s", "api.process_overhead_s": "s",
    "analyze.lint_s": "s", "analyze.replay_s": "s", "analyze.slope": "ratio",
    "classify.critical_s": "s", "classify.figures_s": "s",
    "query.certain_s": "s", "query.answers": "count",
    "serve.exec_ms_p50": "ms", "serve.wait_ms_p50": "ms",
    "serve.wait_ms_p99": "ms", "serve.req_ms_p99": "ms",
    "serve.cache_hit_share": "ratio", "serve.shed_share": "ratio",
    "serve.lint_ms_p50": "ms", "serve.classify_ms_p50": "ms",
    "serve.certain_ms_p50": "ms",
    "trace.overhead_frac": "ratio",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and run context


def build():
    """The `tgdkit` binary through the repository's own root project, so it
    is built the way the repository builds it; the harness through
    perfbench/CMakeLists.txt."""
    if not all((ROOT / path).is_file() for path in (
            "CMakeLists.txt", "src/CMakeLists.txt", "tools/tgdkit_main.cc")):
        log("perfbench: tgdkit sources (CMakeLists.txt, src/, tools/) not "
            "found beside perfbench/")
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    steps = []
    for source, tree, target in ((ROOT, REPO_BUILD, "tgdkit_cli"),
                                 (HERE, HARNESS_BUILD, "perfbench_trace")):
        if not (tree / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(source), "-B", str(tree),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(tree), "--target", target,
                      "-j", jobs])
    # The compiler's temporary files stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(2)


def run_context():
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    build_type = "unknown"
    cache = REPO_BUILD / "CMakeCache.txt"
    if cache.is_file():
        match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(),
                          re.MULTILINE)
        if match:
            build_type = match.group(1)
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc, "cpu_model": cpu_model, "commit": commit,
        "tgdkit_build_type": build_type,
        "loadavg_before": os.getloadavg()[0],
        # The traced run re-runs the chase at TRACE_LANES lanes; on fewer
        # CPUs that measures time-slicing, not lanes.
        "valid": nproc >= TRACE_LANES,
    }


# ---------------------------------------------------------------------------
# Metric values: (value, samples, how it was reduced)


def median_of(samples):
    return (stats.median(samples), samples, "median")


def rate(samples, seconds):
    """Completions per second; `samples` are the completed operations."""
    return (len(samples) / seconds, samples, "rate")


# ---------------------------------------------------------------------------
# Processes


class Sample:
    def __init__(self, wall, exit_code, cpu, rss_kb):
        self.wall = wall
        self.exit = exit_code
        self.cpu = cpu
        self.rss_mb = rss_kb / 1024.0


def probe_seconds():
    got = subprocess.run([str(TRACE), "probe"], capture_output=True,
                         text=True, check=True)
    return float(got.stdout.split()[0])


def timed_run(argv, cwd, stdout_path, stderr_path=os.devnull):
    """fork -> exit wall time, exit code, and wait4 rusage of one run,
    spawned through `perfbench_trace spawn` (see CmdSpawn)."""
    result = cwd / "spawn.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        subprocess.run([str(TRACE), "spawn", "--result", str(result), "--"]
                       + argv, cwd=cwd, stdout=out, stderr=err, check=True)
    wall, exit_code, utime, stime, rss_kb = result.read_text().split()
    return Sample(float(wall), int(exit_code), float(utime) + float(stime),
                  int(rss_kb))


# ---------------------------------------------------------------------------
# CLI workloads: exchange, closure, exchange-spill


class CliWorkload:
    """Generated inputs, the chase argv, and the output check."""

    def __init__(self, name, seed, work):
        self.name, self.work = name, work
        self.spill = name == "exchange-spill"
        if name == "closure":
            rules = workloads.CLOSURE_RULES
            facts, self.expected = workloads.closure_instance(seed)
        else:
            size = workloads.SPILL if self.spill else workloads.EXCHANGE
            rules = workloads.exchange_rules()
            facts, self.expected = workloads.exchange_instance(seed, **size)
        (work / "rules.tgd").write_text(rules)
        (work / "source.facts").write_text(facts)
        (work / "empty.facts").write_text("")
        self.reference = None
        self.spill_runs = 0

    def argv(self, instance="source.facts"):
        args = ["chase", "rules.tgd", instance]
        if self.spill:
            self.spill_runs += 1
            spill_dir = self.work / f"spill-{self.spill_runs}"
            spill_dir.mkdir()
            args += ["--spill-dir", spill_dir.name] + workloads.SPILL_FLAGS
        return args

    def clear_spill(self):
        for path in self.work.glob("spill-*"):
            shutil.rmtree(path, ignore_errors=True)

    def run(self, instance="source.facts", stdout="out.txt"):
        sample = timed_run([str(TGDKIT)] + self.argv(instance), self.work,
                           self.work / stdout, self.work / "err.txt")
        self.clear_spill()
        return sample


    def check_counts(self, text):
        """Per-relation fact counts, null count, and header against the
        closed form."""
        problems = []
        lines = text.split("\n")
        header = lines[0] + "\n" if lines else ""
        if self.name == "closure":
            created = self.expected["created"]
            if not (header.startswith("# chase fixpoint after ") and
                    header.endswith(f" rounds, {created} facts created\n")):
                problems.append("header")
        elif header != self.expected["header"]:
            problems.append("header")
        if len(lines) < 2 or \
                not lines[1].startswith("# status: OK seed=0 threads=1"):
            problems.append("status")
        counts = {}
        for line in lines[2:]:
            if line:
                relation = line.split("(", 1)[0]
                counts[relation] = counts.get(relation, 0) + 1
        if counts != self.expected["counts"]:
            problems.append("fact-counts")
        nulls = len(set(re.findall(r"_N\d+", text)))
        if nulls != self.expected["nulls"]:
            problems.append("null-count")
        return problems

    def check(self, sample, stdout="out.txt"):
        if sample.exit != 0:
            return [f"exit-{sample.exit}"]
        data = (self.work / stdout).read_bytes()
        if not self.spill:
            return self.check_counts(data.decode())
        problems = [] if self.matches_reference(data) else \
            ["spill-vs-in-core"]
        return problems + stats.spill_problems(
            data, (self.work / "err.txt").read_text())

    def matches_reference(self, data):
        """Spilled output equals the in-core output except that the status
        line also carries the spill segment counters."""
        ref_header, _, ref_rest = self.reference.partition(b"\n")
        ref_status, _, ref_rest = ref_rest.partition(b"\n")
        header, _, rest = data.partition(b"\n")
        status, _, rest = rest.partition(b"\n")
        return (header == ref_header and rest == ref_rest and
                status.startswith(ref_status + b" spill_segments="))

    def make_reference(self, outcomes):
        """exchange-spill: one in-core run of the same inputs, itself
        checked against the closed form."""
        argv = [str(TGDKIT), "chase", "rules.tgd", "source.facts"]
        sample = timed_run(argv, self.work, self.work / "incore.txt")
        self.reference = (self.work / "incore.txt").read_bytes()
        problems = [f"exit-{sample.exit}"] if sample.exit else \
            self.check_counts(self.reference.decode())
        outcomes.record(["in-core-reference:" + p for p in problems])


def run_cli(name, seed, seconds, work, outcomes):
    w = CliWorkload(name, seed, work)
    if w.spill:
        w.make_reference(outcomes)
    setup, samples, probes = [], [], []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        probes.append(probe_seconds())
        for _ in range(SETUP_PER_SAMPLE):
            sample = w.run(instance="empty.facts", stdout="empty.txt")
            outcomes.record([f"setup-exit-{sample.exit}"] if sample.exit
                            else [])
            setup.append(sample.wall)
        sample = w.run()
        outcomes.record(w.check(sample))
        samples.append(sample)
    walls = [s.wall for s in samples]
    return probes, {
        "wall_s": median_of(walls),
        "cpu_s": median_of([s.cpu for s in samples]),
        "peak_rss_mb": median_of([s.rss_mb for s in samples]),
        "setup_s": median_of(setup),
        "req_p50_ms": median_of([x * 1000 for x in walls]),
        "req_per_s": rate(walls, sum(walls)),
    }


def trace_cli(name, seed, seconds, work, outcomes):
    """Untraced runs for wall_s, then in-process replays until the time is
    used; per-layer metrics are medians over the replays."""
    w = CliWorkload(name, seed, work)
    if w.spill:
        w.make_reference(outcomes)
    walls = []
    for _ in range(3):
        sample = w.run()
        outcomes.record(w.check(sample))
        walls.append(sample.wall)
    wall_s = stats.median(walls)
    cli_output = (work / "out.txt").read_bytes()
    per_run = []
    spans_out = []
    deadline = time.perf_counter() + seconds
    while not per_run or time.perf_counter() < deadline:
        run_id = f"{name}-{seed}-{len(per_run)}"
        argv = w.argv()
        spans_path = work / f"spans-{len(per_run)}.jsonl"
        got = subprocess.run(
            [str(TRACE), "chase", "--run", run_id, "--spans", str(spans_path),
             "--out", "traced.txt",
             "--other-threads", str(TRACE_LANES), "--"] + argv,
            cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        w.clear_spill()
        problems = [] if got.returncode == 0 else ["trace-exit"]
        if not problems:
            if (work / "traced.txt").read_bytes() != cli_output:
                problems.append("traced-output-differs")
            lines = spans_path.read_text().splitlines()
            spans_out += lines
            spans, counters = stats.load_trace(lines)
            c = {k[1]: v for k, v in counters.items()}
            if c.get("api.identical") != 1 or c.get("api.exit") != 0:
                problems.append("api-output-differs")
            per_run.append(cli_layer_metrics(spans, c, wall_s))
        else:
            log(got.stderr.decode(errors="replace"))
        outcomes.record(problems)
        if problems:
            break
    return per_run, spans_out


def cli_layer_metrics(spans, c, wall_s):
    own = stats.layer_self_times(spans)
    rounds_s = stats.span_total(spans, "chase.round")
    other_s = c["chase.other_rounds_s"]
    insert_s = stats.span_total(spans, "data.insert")
    match_s = stats.span_total(spans, "homo.match")
    api_s = stats.span_total(spans, "api.run")
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    m.update({
        "parse.busy_s": own.get("parse", 0.0),
        "parse.facts_per_s":
            c["parse.facts"] / stats.span_total(spans, "parse.instance"),
        "dep.skolemize_s": own.get("dep", 0.0),
        "dep.parts": c["dep.parts"],
        "chase.load_s": stats.span_total(spans, "chase.load"),
        "chase.rounds_s": rounds_s,
        "chase.rounds_cpu_s": c["chase.rounds_cpu_s"],
        "chase.slowest_round_s": stats.span_max(spans, "chase.round"),
        "chase.rounds": c["chase.rounds"],
        "chase.facts_created": c["chase.facts_created"],
        "chase.steps": c["chase.steps"],
        "chase.facts_per_kstep":
            1000 * c["chase.facts_created"] / max(c["chase.steps"], 1),
        "chase.lane_util":
            c["chase.other_rounds_cpu_s"] / (other_s * TRACE_LANES),
        "chase.speedup_4v1": rounds_s / other_s,
        "homo.match_s": match_s,
        "homo.matches": c["homo.matches"],
        "homo.matches_per_s": c["homo.matches"] / match_s,
        "term.arena_nodes": c["term.arena_nodes"],
        "term.arena_mb": c["term.arena_bytes"] / 2**20,
        "data.instance_mb": c["data.instance_bytes"] / 2**20,
        "data.index_mb": c["data.index_bytes"] / 2**20,
        "data.bytes_per_fact": c["data.instance_bytes"] / c["data.facts"],
        "data.insert_s": insert_s,
        "data.inserts_per_s": c["data.facts"] / insert_s,
        "data.print_s": stats.span_total(spans, "data.print"),
        "data.spill_evictions": c["data.spill_evictions"],
        "data.spill_faults": c["data.spill_faults"],
        "data.spill_segment_writes": c["data.spill_segment_writes"],
        "api.run_s": api_s,
        "api.process_overhead_s": wall_s - api_s,
        "trace.overhead_frac":
            stats.span_total(spans, "replay") / wall_s - 1.0,
    })
    return m


# ---------------------------------------------------------------------------
# serve-mix


class Daemon:
    """One `tgdkit serve` process on an ephemeral loopback port."""

    def __init__(self, work):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(TGDKIT), "serve", "--listen", "0", "--serve-threads",
             str(SERVE_LANES)],
            cwd=work, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        match = re.search(r"tcp:127\.0\.0\.1:(\d+) ", line)
        if not match:
            self.kill()
            raise RuntimeError(f"serve did not start: {line!r}")
        self.port = int(match.group(1))

    def connect(self):
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=REPLY_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def ping(self):
        """Seconds from spawn until the first ping is answered."""
        sock, reader = self.connect()
        sock.sendall(b'{"id":"ping","command":"ping"}\n')
        reply = stats.parse_serve_response(reader.readline())
        ready = time.perf_counter() - self.start
        reader.close()
        sock.close()
        if reply["status"] != "ok":
            raise RuntimeError("ping refused")
        return ready

    def stop(self):
        """SIGTERM drain; returns the session's fork -> exit Sample. A
        daemon that has not drained within REPLY_TIMEOUT_S is killed.

        Peak RSS is the daemon's own VmHWM, read before the drain: its
        ru_maxrss would start at this Python process's peak."""
        status_text = Path(f"/proc/{self.proc.pid}/status").read_text()
        hwm_kb = int(re.search(r"^VmHWM:\s+(\d+) kB", status_text,
                               re.MULTILINE).group(1))
        self.proc.send_signal(signal.SIGTERM)
        watchdog = threading.Timer(REPLY_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        self.proc.stdout.read()
        _, status, rusage = os.wait4(self.proc.pid, 0)
        watchdog.cancel()
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return Sample(wall, self.proc.returncode,
                      rusage.ru_utime + rusage.ru_stime, hwm_kb)

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def drive(daemon, script):
    """Closed loop: SERVE_CONNECTIONS clients, one request outstanding
    each. Returns (replies, drive seconds); replies[i] = (latency s, raw
    response line)."""
    replies = [None] * len(script)
    cursor = iter(range(len(script)))
    lock = threading.Lock()

    def client():
        try:
            sock, reader = daemon.connect()
        except OSError:
            sock = reader = None
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sent = time.perf_counter()
                line = b""  # no reply: counted as an unparseable one
                if sock is not None:
                    try:
                        sock.sendall(script[index][0].encode() + b"\n")
                        line = reader.readline()
                    except OSError:
                        pass
                replies[index] = (time.perf_counter() - sent, line)
        finally:
            if sock is not None:
                reader.close()
                sock.close()

    threads = [threading.Thread(target=client)
               for _ in range(SERVE_CONNECTIONS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies, time.perf_counter() - start


def check_reply(expect, reply):
    """Closed-form checks; classify is checked later against RunCommand."""
    if reply["status"] != "ok":
        return [f"refused-{reply['status']}"]
    if reply["exit"] != 0:
        return [f"exit-{reply['exit']}"]
    out = reply["stdout"]
    if expect["kind"] == "certain":
        lines = out.split("\n")
        if not lines[0].startswith("# complete") or lines[1] != "# status: OK":
            return ["certain-header"]
        answers = [x for x in lines[2:] if x]
        return [] if len(answers) == expect["answers"] else ["certain-answers"]
    if expect["kind"] == "lint":
        unused = out.count("[unused-body-variable]")
        complexity = out.count("[chase-complexity]")
        findings = out.count("\n")
        ok = (unused == expect["unused"] and
              complexity == expect["complexity"] and
              findings == unused + complexity)
        return [] if ok else ["lint-findings"]
    return []


def run_sessions(seed, seconds, work):
    """Repeated daemon sessions until the time is used. Each session spawns
    a daemon, answers a seeded script of SESSION_REQUESTS requests, and
    drains; SETUP_PER_SAMPLE bare spawn -> ping -> drain cycles precede
    it."""
    sessions = []
    deadline = time.perf_counter() + seconds
    while not sessions or time.perf_counter() < deadline:
        probe = probe_seconds()
        setup = serve_setup_spawns(work, SETUP_PER_SAMPLE)
        script = workloads.serve_script(seed, len(sessions), SESSION_REQUESTS)
        daemon = Daemon(work)
        try:
            ready = daemon.ping()
            replies, drive_s = drive(daemon, script)
            sample = daemon.stop()
        finally:
            daemon.kill()
        sessions.append({"script": script, "replies": replies,
                         "drive_s": drive_s, "setup": setup + [ready],
                         "sample": sample, "probe": probe})
    return sessions


def serve_setup_spawns(work, count):
    ready = []
    for _ in range(count):
        daemon = Daemon(work)
        try:
            ready.append(daemon.ping())
            daemon.stop()
        finally:
            daemon.kill()
    return ready


def frame_key(frame):
    """A frame's content without its id: what the result cache keys on."""
    body = json.loads(frame)
    del body["id"]
    return json.dumps(body, sort_keys=True)


def verify_classify(frames, work):
    """RunCommand on every distinct classify frame, in four parallel
    harness processes; returns frame id -> (exit, stdout)."""
    distinct = {frame_key(f): f for f in frames}
    procs = []
    for i in range(4):
        chunk = list(distinct.values())[i::4]
        if chunk:
            (work / f"verify-{i}.jsonl").write_text("\n".join(chunk) + "\n")
            procs.append(subprocess.Popen(
                [str(TRACE), "verify", "--frames", f"verify-{i}.jsonl",
                 "--out", f"verified-{i}.jsonl"], cwd=work))
    if any(proc.wait() != 0 for proc in procs):
        raise RuntimeError("perfbench_trace verify failed")
    by_id = {}
    for path in work.glob("verified-*.jsonl"):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            by_id[record["id"]] = (record["exit"], record["stdout"])
    by_key = {key: by_id[json.loads(f)["id"]] for key, f in distinct.items()}
    return {json.loads(f)["id"]: by_key[frame_key(f)] for f in frames}


def collect_replies(sessions, work, outcomes):
    """Checks every reply; returns per-request records."""
    records = []
    classify_frames = []
    for session in sessions:
        for (frame, expect), answered in zip(session["script"],
                                             session["replies"]):
            # A client thread that died leaves its requests unanswered.
            latency, line = answered or (0.0, b"")
            try:
                reply = stats.parse_serve_response(line)
            except ValueError:
                reply = {"status": "unparseable", "exit": None,
                         "stdout": "", "cached": False, "duration_ms": 0}
            records.append({"id": json.loads(frame)["id"],
                            "frame": frame, "expect": expect,
                            "latency": latency, "reply": reply,
                            "problems": check_reply(expect, reply)})
            if expect["kind"] == "classify" and reply["status"] == "ok":
                classify_frames.append(frame)
    reference = verify_classify(classify_frames, work) \
        if classify_frames else {}
    for record in records:
        reply = record["reply"]
        if record["expect"]["kind"] == "classify" and reply["status"] == "ok":
            if reference.get(record["id"]) != (reply["exit"],
                                               reply["stdout"]):
                record["problems"].append("classify-vs-runcommand")
        outcomes.record(record["problems"])
    return records


def run_serve(seed, seconds, work, outcomes):
    sessions = run_sessions(seed, seconds, work)
    records = collect_replies(sessions, work, outcomes)
    setup = [ready for s in sessions for ready in s["setup"]]
    ok = [r for r in records if r["reply"]["status"] == "ok"]
    latencies_ms = [r["latency"] * 1000 for r in ok]
    daemons = [s["sample"] for s in sessions]
    for d in daemons:
        outcomes.record([f"serve-exit-{d.exit}"] if d.exit else [])
    return [s["probe"] for s in sessions], {
        "wall_s": median_of([d.wall for d in daemons]),
        "cpu_s": median_of([d.cpu for d in daemons]),
        "peak_rss_mb": median_of([d.rss_mb for d in daemons]),
        "setup_s": median_of(setup),
        "req_p50_ms": median_of(latencies_ms),
        "req_per_s": rate(latencies_ms, sum(s["drive_s"] for s in sessions)),
    }


def serve_client_metrics(records):
    ok = [r for r in records if r["reply"]["status"] == "ok"]
    lat = [r["latency"] * 1000 for r in ok]
    exec_ms = [float(r["reply"]["duration_ms"]) for r in ok]
    wait = [latency - e for latency, e in zip(lat, exec_ms)]

    def by_kind(kind):
        values = [r["latency"] * 1000 for r in ok
                  if r["expect"]["kind"] == kind]
        return stats.median(values) if values else 0.0

    return {
        "serve.exec_ms_p50": stats.median(exec_ms),
        "serve.wait_ms_p50": stats.median(wait),
        "serve.wait_ms_p99": stats.percentile(wait, 99) or 0.0,
        "serve.req_ms_p99": stats.percentile(lat, 99) or 0.0,
        "serve.cache_hit_share": sum(r["reply"]["cached"] for r in ok)
        / len(ok),
        "serve.shed_share": sum(r["reply"]["status"] == "overloaded"
                                for r in records) / len(records),
        "serve.lint_ms_p50": by_kind("lint"),
        "serve.classify_ms_p50": by_kind("classify"),
        "serve.certain_ms_p50": by_kind("certain"),
    }


def trace_serve(seed, seconds, work, outcomes):
    """Served sessions split client-side into exec and wait, then the
    first session's frames replayed in-process through the analyze,
    classify and query calls."""
    sessions = run_sessions(seed, seconds, work)
    records = collect_replies(sessions, work, outcomes)
    first = sessions[0]
    frames = [frame for frame, _ in first["script"]]
    (work / "frames.jsonl").write_text("\n".join(frames) + "\n")
    for links in SLOPE_LINKS:
        (work / f"chain-{links}.tgd").write_text(workloads.chain_text(links))
    run_id = f"serve-mix-{seed}-0"
    got = subprocess.run(
        [str(TRACE), "serve", "--run", run_id, "--spans", "spans.jsonl",
         "--frames", "frames.jsonl", "--out", "replayed.jsonl", "--slope",
         ",".join(f"chain-{links}.tgd" for links in SLOPE_LINKS)],
        cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if got.returncode != 0:
        log(got.stderr.decode(errors="replace"))
        outcomes.record(["trace-exit"])
        return [], []
    lines = (work / "spans.jsonl").read_text().splitlines()
    spans, counters = stats.load_trace(lines)
    c = {k[1]: v for k, v in counters.items()}
    # The replay must see what the daemon answered.
    served = {r["id"]: r for r in records[:len(frames)]}
    problems = []
    for line in (work / "replayed.jsonl").read_text().splitlines():
        replayed = json.loads(line)
        reply = served[replayed["id"]]["reply"]
        if (replayed["exit"], replayed["stdout"]) != (reply["exit"],
                                                      reply["stdout"]):
            problems.append("replay-vs-served")
    expected_answers = sum(e["answers"] for _, e in first["script"]
                           if e["kind"] == "certain")
    if c.get("query.answers", 0) != expected_answers:
        problems.append("replay-answers")
    expected_findings = sum(e["unused"] + e["complexity"]
                            for _, e in first["script"] if e["kind"] == "lint")
    if c.get("analyze.findings", 0) != expected_findings:
        problems.append("replay-findings")
    outcomes.record(problems)

    first_ok = [r for r in records[:len(frames)]
                if r["reply"]["status"] == "ok"]
    served_exec_s = sum(r["reply"]["duration_ms"] for r in first_ok) / 1000
    served_latency_s = sum(r["latency"] for r in first_ok)
    own = stats.layer_self_times(spans)
    api_s = stats.span_total(spans, "api.run")
    slope = stats.log_log_slope(
        [(n, c[f"slope.s.chain-{n}.tgd"]) for n in SLOPE_LINKS])
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    m.update({
        "parse.busy_s": own.get("parse", 0.0),
        "parse.facts_per_s":
            c["parse.facts"] / stats.span_total(spans, "parse.instance"),
        "dep.skolemize_s": own.get("dep", 0.0),
        "dep.parts": c["dep.parts"],
        "api.run_s": api_s,
        "api.process_overhead_s": (served_latency_s - api_s) / len(first_ok),
        "analyze.lint_s": stats.span_total(spans, "analyze.lint"),
        "analyze.replay_s": stats.span_total(spans, "analyze.replay"),
        "analyze.slope": slope,
        "classify.critical_s": stats.span_total(spans, "classify.critical"),
        "classify.figures_s": stats.span_total(spans, "classify.figures"),
        "query.certain_s": stats.span_total(spans, "query.certain"),
        "query.answers": c.get("query.answers", 0.0),
        "trace.overhead_frac":
            stats.span_total(spans, "replay") / served_exec_s - 1.0,
    })
    m.update(serve_client_metrics(records))
    return [m], lines


# ---------------------------------------------------------------------------
# Reporting


def describe(samples, how):
    """Sample count, within-run spread, and the highest percentile with at
    least ten samples beyond it."""
    if how != "median":
        return f"{how} over n={len(samples)}"
    note = f"median of n={len(samples)}"
    if len(samples) >= 2 and stats.median(samples):
        note += f", IQR/median {stats.relative_spread(samples):.3f}"
    for pct in (99, 95, 90, 75):
        value = stats.percentile(samples, pct)
        if value is not None:
            return note + f", p{pct} {value:.6g}"
    return note + ", no percentile above it has 10 samples beyond"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    context = run_context()
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = BUILD / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    outcomes = stats.Outcomes()
    try:
        if args.trace:
            if args.workload == "serve-mix":
                per_run, spans = trace_serve(args.seed, args.seconds, work,
                                             outcomes)
            else:
                per_run, spans = trace_cli(args.workload, args.seed,
                                           args.seconds, work, outcomes)
            (results / f"{args.workload}-seed{args.seed}-spans.jsonl") \
                .write_text("\n".join(spans) + "\n")
            units = PER_LAYER_UNITS
            metrics = {name: median_of([m[name] for m in per_run])
                       for name in units} if per_run else {}
        else:
            units = END_TO_END_UNITS
            if args.workload == "serve-mix":
                probes, metrics = run_serve(args.seed, args.seconds, work,
                                            outcomes)
                context["serve_mix_assumptions"] = workloads.ASSUMED_MIX
            else:
                probes, metrics = run_cli(args.workload, args.seed,
                                          args.seconds, work, outcomes)
            # Context only: how fast this machine ran a fixed integer loop
            # during the run. No metric is scaled by it.
            context["probe_median_s"] = stats.median(probes)
            context["probes"] = len(probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["loadavg_after"] = os.getloadavg()[0]

    correct = outcomes.failed == 0 and bool(metrics)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("# context: " + json.dumps(context, sort_keys=True))
    if not context["valid"]:
        # The last line's keys are fixed, so the mark goes here, to
        # stderr, and into the results file.
        message = (f"# INVALID RUN: nproc {context['nproc']} < "
                   f"{TRACE_LANES} lanes")
        print(message)
        log(message)
    for name, (value, samples, how) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} "
              f"{describe(samples, how)}")
    print(f"  {'fail_frac':28s} {outcomes.fail_frac:14.6g} ratio  "
          f"{outcomes.failed}/{outcomes.attempted} operations")
    for reason, count in sorted(outcomes.reasons.items()):
        print(f"  FAILED {reason}: {count}")
    summary = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in metrics.items()},
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({
            "context": context, **summary,
            "samples": {name: samples for name, (_, samples, how) in
                        metrics.items() if how == "median"},
            "failures": outcomes.reasons}, indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
