"""Summary statistics and trace arithmetic for perfbench.

Kept free of I/O so test_stats.py can pin every rule the benchmark
reports with.
"""

import json
import math
import re
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it, so a p99 needs 1000 samples.
MIN_TAIL_SAMPLES = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def samples_beyond(count, pct):
    """How many of `count` samples lie strictly above the pct-th percentile
    (nearest-rank)."""
    rank = max(1, -(-count * pct // 100))  # ceil(count * pct / 100)
    return count - rank


def percentile(values, pct):
    """Nearest-rank percentile, or None when fewer than MIN_TAIL_SAMPLES
    samples lie beyond it."""
    if not values or samples_beyond(len(values), pct) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


class Outcomes:
    """Counts operations and failures; fail_frac = failed / attempted.

    An operation fails on an unexpected exit code, a serve refusal, or an
    output that fails the workload's check. Each operation counts once,
    however many of its checks fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def record(self, problems):
        """`problems` lists what was wrong with one operation (empty when
        it passed)."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                self.reasons[problem] = self.reasons.get(problem, 0) + 1

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def load_trace(lines):
    """Splits perfbench_trace JSON lines into (spans, counters).

    Spans are dicts with run, id, name, parent, start and end; counters map
    (run, name) to a value."""
    spans, counters = [], {}
    for line in lines:
        if not line.strip():
            continue
        record = json.loads(line)
        if "count" in record:
            counters[(record["run"], record["count"])] = record["value"]
        else:
            spans.append(record)
    return spans, counters


def self_times(spans):
    """Span id -> its duration minus its direct children's, per run."""
    own = {}
    for s in spans:
        own[(s["run"], s["id"])] = s["end"] - s["start"]
    for s in spans:
        if s["parent"] >= 0:
            own[(s["run"], s["parent"])] -= s["end"] - s["start"]
    return own


def layer_of(name):
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


def layer_self_times(spans):
    """Layer -> summed self time over all spans of that layer."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        layer = layer_of(s["name"])
        totals[layer] = totals.get(layer, 0.0) + own[(s["run"], s["id"])]
    return totals


def span_total(spans, name):
    """Summed duration of every span called `name`."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def span_max(spans, name):
    return max((s["end"] - s["start"] for s in spans if s["name"] == name),
               default=0.0)


def parse_serve_response(line):
    """One serve response line -> a dict with the fields perfbench reads.

    Raises ValueError on a line that is not a JSON object with an id and a
    status."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"unparseable response: {error}") from None
    if not isinstance(record, dict) or "id" not in record \
            or "status" not in record:
        raise ValueError("response lacks id or status")
    return {
        "id": record["id"],
        "status": record["status"],
        "exit": record.get("exit"),
        "cached": bool(record.get("cached", False)),
        "duration_ms": record.get("duration_ms", 0),
        "stdout": record.get("stdout", ""),
        "error": record.get("error", ""),
    }


def spill_problems(stdout, stderr):
    """exchange-spill must seal segments, evict some and fault some back
    in: a run that kept everything resident measured the wrong path."""
    sealed = re.search(rb" spill_segments=(\d+)", stdout)
    io = re.search(r"^# spill: faults=(\d+) evictions=(\d+)", stderr,
                   re.MULTILINE)
    if not sealed or not io:
        return ["spill-counters-missing"]
    problems = []
    if int(sealed.group(1)) == 0:
        problems.append("spill-nothing-sealed")
    if int(io.group(2)) == 0:
        problems.append("spill-nothing-evicted")
    if int(io.group(1)) == 0:
        problems.append("spill-nothing-faulted")
    return problems


def log_log_slope(points):
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
