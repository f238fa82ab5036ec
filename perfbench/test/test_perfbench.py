"""Self-test of the benchmark: output schema, metric coverage, the
correctness tally and trace coverage. It asserts no timing bounds.

    python3 -m unittest discover -s perfbench/test

Each workload runs briefly, once untraced and once traced, plus one encode
run with a deliberately corrupted batch; expect a few minutes.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT = os.path.join(ROOT, ".bench_build", "out")
SEED = 7
SECONDS = "2"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, corrupt=0):
    """Run the benchmark; return (final line, full result file, trace file or None)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
                             "--trace", str(trace), "--corrupt", str(corrupt)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-3000:]}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    base = os.path.join(OUT, f"{workload}-seed{SEED}-trace{trace}")
    with open(base + ".json") as f:
        result = json.load(f)
    trace_file = base + ".trace.json"
    traced = None
    if os.path.exists(trace_file):
        with open(trace_file) as f:
            traced = json.load(f)
    return line, result, traced


def trace_keys(traced):
    """Metric names the spans and counts of a trace file back."""
    span = {k: i for i, k in enumerate(traced["span_fields"])}
    count = {k: i for i, k in enumerate(traced["count_fields"])}

    def key(name, tag):
        return f"{name}.{tag}" if tag else name

    keys = set()
    for s in traced["spans"]:
        name, tag = s[span["name"]], s[span["tag"]]
        keys.add(key(name + "_ms", tag))
        if name in traced["self_timed"]:
            keys.add(key(traced["self_timed"][name] + "_ms", tag))
    for c in traced["counts"]:
        keys.add(key(c[count["name"]], c[count["tag"]]))
    return keys


class BenchmarkSelfTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[w, trace] = bench(w, trace)

    def test_output_schema(self):
        for (w, trace), (line, _, _) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertIsInstance(line["attempted"], int)
                self.assertIsInstance(line["failed"], int)
                self.assertGreaterEqual(line["attempted"], 1)
                named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                self.assertEqual(list(line["metrics"]), [m["name"] for m in named])
                for m in named:
                    got = line["metrics"][m["name"]]
                    self.assertEqual(set(got), {"value", "unit"})
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))

    def test_outputs_correct_and_end_to_end_metrics_nonzero(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                line, result, _ = self.runs[w, trace]
                with self.subTest(workload=w, trace=trace):
                    self.assertTrue(line["correct"], result["failures"])
                    self.assertEqual(line["failed"], 0)
                    self.assertEqual(result["failed_frac"], 0.0)
            for m in SPEC["end_to_end"]:
                with self.subTest(workload=w, metric=m["name"]):
                    self.assertGreater(self.runs[w, 0][0]["metrics"][m["name"]]["value"], 0)

    def test_corrupted_batch_counts_as_failed(self):
        line, result, _ = bench("encode", 0, corrupt=1)
        self.assertFalse(line["correct"])
        self.assertGreaterEqual(line["failed"], 1)
        self.assertGreater(result["failed_frac"], 0.0)

    def test_untraced_run_records_no_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result, traced = self.runs[w, 0]
                self.assertIsNone(traced)
                self.assertEqual(result["per_layer"], {})

    def test_every_per_layer_metric_is_backed_by_the_trace(self):
        measured = {}
        for w in WORKLOADS:
            _, result, traced = self.runs[w, 1]
            keys = trace_keys(traced)
            self.assertIn("trace.overhead_pct", result["per_layer"], w)
            for name, s in result["per_layer"].items():
                self.assertIn(name, keys, f"{w}: {name} has no span or count behind it")
                self.assertGreaterEqual(s["n"], 1)
                measured.setdefault(name, w)
        for m in SPEC["per_layer"]:
            with self.subTest(metric=m["name"]):
                self.assertIn(m["name"], measured, "no workload measures it")


if __name__ == "__main__":
    sys.exit(unittest.main())
