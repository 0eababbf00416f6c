"""Tests for perfbench's helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import random
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_rejects_no_samples(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_relative_spread(self):
        # quantiles of 1..9 (exclusive method): Q1=2.5, Q2=5, Q3=7.5.
        self.assertAlmostEqual(stats.relative_spread(range(1, 10)), 1.0)
        self.assertEqual(stats.relative_spread([2.0] * 10), 0.0)


class TailRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(999)), 99))
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)

    def test_p50_of_twenty(self):
        self.assertEqual(stats.samples_beyond(20, 50), 10)
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(stats.percentile(list(range(1, 20)), 50))

    def test_percentile_is_order_independent(self):
        values = list(range(1, 2001))
        shuffled = values[:]
        random.Random(1).shuffle(shuffled)
        self.assertEqual(stats.percentile(values, 99),
                         stats.percentile(shuffled, 99))

    def test_no_samples(self):
        self.assertIsNone(stats.percentile([], 50))


class FailFrac(unittest.TestCase):
    def test_counts_each_operation_once(self):
        outcomes = stats.Outcomes()
        outcomes.record([])
        outcomes.record(["exit-4", "fact-counts"])
        outcomes.record([])
        outcomes.record(["fact-counts"])
        self.assertEqual((outcomes.attempted, outcomes.failed), (4, 2))
        self.assertEqual(outcomes.fail_frac, 0.5)
        self.assertEqual(outcomes.reasons, {"exit-4": 1, "fact-counts": 2})

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(stats.Outcomes().fail_frac, 1.0)


def span(sid, name, parent, start, end, run="r"):
    return {"run": run, "id": sid, "name": name, "parent": parent,
            "start": start, "end": end}


class SpanSelfTime(unittest.TestCase):
    SPANS = [
        span(0, "replay", -1, 0.0, 10.0),
        span(1, "parse.deps", 0, 0.0, 1.0),
        span(2, "dep.merge", 0, 1.0, 1.5),
        span(3, "chase.round", 0, 2.0, 6.0),
        span(4, "chase.round", 0, 6.0, 9.0),
        span(5, "api.run", -1, 10.0, 12.0),
    ]

    def test_self_time_subtracts_direct_children(self):
        own = stats.self_times(self.SPANS)
        self.assertAlmostEqual(own[("r", 0)], 10.0 - 1.0 - 0.5 - 4.0 - 3.0)
        self.assertAlmostEqual(own[("r", 3)], 4.0)

    def test_layer_totals(self):
        layers = stats.layer_self_times(self.SPANS)
        self.assertAlmostEqual(layers["chase"], 7.0)
        self.assertAlmostEqual(layers["parse"], 1.0)
        self.assertAlmostEqual(layers["replay"], 1.5)
        self.assertAlmostEqual(sum(layers.values()), 12.0)

    def test_nested_grandchildren(self):
        spans = [span(0, "request.lint", -1, 0.0, 5.0),
                 span(1, "analyze.lint", 0, 0.0, 4.0),
                 span(2, "parse.deps", 1, 0.0, 1.0)]
        layers = stats.layer_self_times(spans)
        self.assertAlmostEqual(layers["analyze"], 3.0)
        self.assertAlmostEqual(layers["request"], 1.0)

    def test_runs_keep_separate_id_spaces(self):
        spans = [span(0, "replay", -1, 0.0, 2.0, run="a"),
                 span(0, "replay", -1, 0.0, 3.0, run="b"),
                 span(1, "chase.round", 0, 0.0, 1.0, run="b")]
        own = stats.self_times(spans)
        self.assertAlmostEqual(own[("a", 0)], 2.0)
        self.assertAlmostEqual(own[("b", 0)], 2.0)

    def test_span_aggregates(self):
        self.assertAlmostEqual(stats.span_total(self.SPANS, "chase.round"),
                               7.0)
        self.assertAlmostEqual(stats.span_max(self.SPANS, "chase.round"),
                               4.0)
        self.assertEqual(stats.span_max(self.SPANS, "missing"), 0.0)

    def test_load_trace_splits_spans_and_counters(self):
        lines = [json.dumps(s) for s in self.SPANS[:2]]
        lines.append('{"run":"r","count":"chase.steps","value":42.0}')
        spans, counters = stats.load_trace(lines + [""])
        self.assertEqual(len(spans), 2)
        self.assertEqual(counters, {("r", "chase.steps"): 42.0})


class ServeResponseParser(unittest.TestCase):
    def test_ok_response(self):
        line = ('{"id":"s0r1","status":"ok","exit":0,"cached":true,'
                '"duration_ms":12,"stdout":"# complete\\n","stderr":""}\n')
        reply = stats.parse_serve_response(line)
        self.assertEqual(reply["id"], "s0r1")
        self.assertEqual(reply["status"], "ok")
        self.assertEqual(reply["exit"], 0)
        self.assertTrue(reply["cached"])
        self.assertEqual(reply["duration_ms"], 12)
        self.assertEqual(reply["stdout"], "# complete\n")

    def test_refusal(self):
        line = ('{"id":"x","status":"overloaded","error":"busy",'
                '"retry_after_ms":5}')
        reply = stats.parse_serve_response(line)
        self.assertEqual(reply["status"], "overloaded")
        self.assertIsNone(reply["exit"])
        self.assertFalse(reply["cached"])
        self.assertEqual(reply["error"], "busy")

    def test_bytes_input(self):
        reply = stats.parse_serve_response(b'{"id":"p","status":"ok"}\n')
        self.assertEqual(reply["id"], "p")

    def test_rejects_garbage_and_missing_fields(self):
        for line in ("", "not json", "[1, 2]", '{"id":"a"}',
                     '{"status":"ok"}'):
            with self.assertRaises(ValueError):
                stats.parse_serve_response(line)


class SpillCounters(unittest.TestCase):
    STDOUT = (b"# chase fixpoint after 3 rounds, 9 facts created\n"
              b"# status: OK seed=0 threads=1 spill_segments=%d "
              b"spill_bytes=4096\nA(a) .\n")
    STDERR = "# spill: faults=%d evictions=%d segment_writes=3\n"

    def test_evicted_and_faulted(self):
        self.assertEqual(
            stats.spill_problems(self.STDOUT % 7, self.STDERR % (1, 3)), [])

    def test_each_missing_path_is_named(self):
        self.assertEqual(
            stats.spill_problems(self.STDOUT % 0, self.STDERR % (0, 0)),
            ["spill-nothing-sealed", "spill-nothing-evicted",
             "spill-nothing-faulted"])
        self.assertEqual(
            stats.spill_problems(self.STDOUT % 7, self.STDERR % (0, 3)),
            ["spill-nothing-faulted"])

    def test_missing_counters(self):
        self.assertEqual(stats.spill_problems(b"# status: OK\n",
                                              self.STDERR % (1, 1)),
                         ["spill-counters-missing"])
        self.assertEqual(stats.spill_problems(self.STDOUT % 7, ""),
                         ["spill-counters-missing"])


class UnreachableDaemon(unittest.TestCase):
    def test_every_request_counts_as_failed(self):
        class Unreachable:
            def connect(self):
                raise ConnectionRefusedError()

        script = workloads.serve_script(1, 0, 20)
        replies, _ = run.drive(Unreachable(), script)
        outcomes = stats.Outcomes()
        run.collect_replies([{"script": script, "replies": replies}], None,
                            outcomes)
        self.assertEqual((outcomes.attempted, outcomes.failed), (20, 20))
        self.assertEqual(outcomes.reasons, {"refused-unparseable": 20})


class Slope(unittest.TestCase):
    def test_power_law(self):
        points = [(n, 3.0 * n ** 1.7) for n in (16, 32, 64, 128)]
        self.assertAlmostEqual(stats.log_log_slope(points), 1.7)


class Generators(unittest.TestCase):
    """Seed plumbing: same seed, same bytes; closed forms hold for the
    held-out seed too (the CLI side is checked by run.py itself)."""

    SEEDS = (1, 2, workloads.HELD_OUT_SEED)

    def test_exchange_is_a_function_of_the_seed(self):
        for seed in self.SEEDS:
            a = workloads.exchange_instance(seed, **workloads.SPILL)
            b = workloads.exchange_instance(seed, **workloads.SPILL)
            self.assertEqual(a, b)
        self.assertNotEqual(
            workloads.exchange_instance(1, **workloads.SPILL)[0],
            workloads.exchange_instance(2, **workloads.SPILL)[0])

    def test_exchange_source_matches_its_closed_form(self):
        for seed in self.SEEDS:
            text, expected = workloads.exchange_instance(
                seed, **workloads.EXCHANGE)
            lines = text.splitlines()
            self.assertEqual(len(lines), len(set(lines)))
            counts = {}
            for line in lines:
                relation = line.split("(", 1)[0]
                counts[relation] = counts.get(relation, 0) + 1
            for relation in ("Takes", "Emp", "Dep"):
                self.assertEqual(counts[relation],
                                 expected["counts"][relation])
            courses = {line.split(", ")[1].split(")")[0]
                       for line in lines if line.startswith("Takes")}
            self.assertEqual(len(courses), expected["counts"]["Offered"])

    def test_closure_counts_by_brute_force(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        nodes = 4
        reach = {(a, b) for a, b in edges}
        while True:
            more = {(a, d) for a, b in reach for c, d in reach if b == c}
            if more <= reach:
                break
            reach |= more
        j = {(a, d) for a, b in reach for b2, c in reach if b == b2
             for c2, d in reach if c == c2}
        p = {(x, y, z) for x, y in j for y2, z in reach if y == y2}
        self.assertEqual(workloads.closure_counts(nodes, edges),
                         {"E": len(reach), "J": len(j), "P": len(p)})

    def test_closure_inputs_differ_only_in_names(self):
        for seed in self.SEEDS:
            text, expected = workloads.closure_instance(seed)
            self.assertEqual(len(text.splitlines()), workloads.CLOSURE_EDGES)
            self.assertEqual(expected["created"],
                             workloads.closure_instance(2)[1]["created"])
            target = workloads.CLOSURE_TARGET
            self.assertLessEqual(abs(expected["created"] - target),
                                 target * workloads.CLOSURE_BAND)

    def test_serve_script_mix_and_repeats(self):
        seed = workloads.HELD_OUT_SEED
        script = workloads.serve_script(seed, 0, 300)
        self.assertEqual(script, workloads.serve_script(seed, 0, 300))
        self.assertNotEqual(script, workloads.serve_script(seed, 1, 300))
        kinds = [expect["kind"] for _, expect in script]
        for kind, share in workloads.ASSUMED_MIX_SHARES:
            self.assertEqual(kinds.count(kind), round(share * len(kinds)))
        frames = [json.loads(frame) for frame, _ in script]
        self.assertEqual(len({f["id"] for f in frames}), len(frames))
        classify = [(f, e) for f, (_, e) in zip(frames, script)
                    if e["kind"] == "classify"]
        fresh = [json.dumps({k: v for k, v in f.items() if k != "id"})
                 for f, e in classify if not e["repeat"]]
        self.assertEqual(len(fresh), len(set(fresh)))
        repeats = [json.dumps({k: v for k, v in f.items() if k != "id"})
                   for f, e in classify if e["repeat"]]
        share = workloads.ASSUMED_CLASSIFY_REPEAT_SHARE
        self.assertEqual(len(repeats), round(share * len(classify)))
        for i, (f, e) in enumerate(classify):
            if e["repeat"]:
                body = json.dumps({k: v for k, v in f.items() if k != "id"})
                earlier = [json.dumps({k: v for k, v in g.items()
                                       if k != "id"})
                           for g, _ in classify[:i]]
                self.assertIn(body, earlier)

    def test_lint_chain_closed_form_inputs(self):
        rng = random.Random(3)
        for i in range(50):
            frame, expect = workloads.lint_request(rng, f"r{i}", rng.random())
            text = json.loads(frame)["file_contents"][0]
            lo, hi = workloads.ASSUMED_LINT_LINKS
            self.assertTrue(lo <= expect["unused"] <= hi)
            self.assertEqual(len(text.splitlines()), expect["unused"])


if __name__ == "__main__":
    unittest.main()
