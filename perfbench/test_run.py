"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench

runs the fast tests (schedules, result schema, compare). With
PERFBENCH_SMOKE=1 it also runs the smoke mode, which builds the program
and runs every workload once (about two minutes on a 2-core machine);
run it from the root of a checkout.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fake_result(metrics, value=1.0):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                        for m in metrics}}


class Schedules(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        for w in run.WORKLOADS:
            self.assertEqual(json.dumps(run.schedule(w, 7)),
                             json.dumps(run.schedule(w, 7)), w)

    def test_different_seed_different_schedule(self):
        # def2 is the exception by design: its cost depends on the sets
        # drawn, so it pins Procedure 1's seed (see DEF2_K2 in run.py).
        for w in run.WORKLOADS:
            a, b = run.schedule(w, 7), run.schedule(w, 8)
            if w == "def2":
                self.assertEqual(a, b)
            else:
                self.assertNotEqual(a, b, w)

    def test_seed_reaches_the_requests(self):
        for w in ("tables-medium", "sim-wide"):
            seeds = {it["request"]["seed"]
                     for it in run.schedule(w, 42)["requests"]}
            self.assertEqual(seeds, {42}, w)

    def test_serve_traffic_shape(self):
        s = run.schedule("serve-warm", 3)
        items = [it for stream in s["streams"] for it in stream]
        self.assertGreaterEqual(len(items), 1000)
        self.assertEqual(len(s["streams"]), 2)
        # Identical pairs sit behind the same barrier on both streams,
        # in the same order.
        syncs = [[(it["sync"], it["id"]) for it in stream if it["sync"]]
                 for stream in s["streams"]]
        self.assertEqual(syncs[0], syncs[1])
        self.assertEqual(len(syncs[0]), run.SERVE_PAIRS)
        # Every warm circuit is asked equally often; every cold circuit
        # appears once, after warm-up, which never touches it.
        ids = [it["id"] for it in items]
        counts = {name: ids.count(name) for name in run.SERVE_WARM}
        self.assertEqual(set(counts.values()), {run.SERVE_WARM_REPEATS})
        warm = {it["id"] for it in s["warmup"]}
        for name in run.SERVE_COLD:
            self.assertNotIn(name, warm)
            self.assertEqual(ids.count(name), 1)


class ResultSchema(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark()

    def test_benchmark_json_matches_the_workloads_and_layers(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         run.WORKLOADS)
        self.assertEqual({m["name"] for m in self.bench["per_layer"]},
                         {n for n, _ in run.LAYER_METRICS})

    def test_good_result(self):
        self.assertEqual(run.check_result(fake_result(self.bench["end_to_end"])), [])

    def test_bad_results(self):
        r = fake_result(self.bench["end_to_end"])
        r["attempted"] = 0
        self.assertTrue(run.check_result(r))
        r = fake_result(self.bench["end_to_end"])
        r["extra"] = 1
        self.assertTrue(run.check_result(r))
        r = fake_result(self.bench["end_to_end"])
        r["metrics"]["wall_s"] = {"value": "fast", "unit": "s"}
        self.assertTrue(run.check_result(r))

    def write(self, doc):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        json.dump(doc, f)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def result_file(self, runs, traced):
        return {"schema": run.RESULT_SCHEMA,
                "workloads": {w: {"runs": runs, "traced": traced}
                              for w in run.WORKLOADS}}

    def test_result_file(self):
        e2e = [fake_result(self.bench["end_to_end"])] * 2
        layer = [fake_result(self.bench["per_layer"])]
        self.assertEqual(run.check_file(self.write(self.result_file(e2e, layer))), [])

    def test_result_file_with_missing_metric(self):
        r = fake_result(self.bench["end_to_end"])
        del r["metrics"]["cpu_s"]
        errs = run.check_file(self.write(self.result_file([r], [])))
        self.assertTrue(errs)


class Compare(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark()

    def side(self, walls):
        runs = []
        for w in walls:
            r = fake_result(self.bench["end_to_end"])
            r["metrics"]["wall_s"]["value"] = w
            runs.append(r)
        return {"schema": run.RESULT_SCHEMA,
                "workloads": {"def2": {"runs": runs, "traced": []}}}

    def compare(self, a, b):
        paths = []
        for doc in (a, b):
            f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
            json.dump(doc, f)
            f.close()
            self.addCleanup(os.unlink, f.name)
            paths.append(f.name)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            flagged = run.compare(*paths)
        return flagged, out.getvalue()

    def test_flags_a_regression_beyond_the_bound(self):
        flagged, text = self.compare(self.side([10, 10.1, 9.9, 10, 10]),
                                     self.side([15, 15.1, 14.9, 15, 15]))
        self.assertEqual(flagged, 1)
        self.assertIn("REGRESSION", text)

    def test_steady_metric_is_unchanged(self):
        flagged, text = self.compare(self.side([10, 10.1, 9.9, 10, 10]),
                                     self.side([10, 10.1, 9.9, 10.1, 10]))
        self.assertEqual(flagged, 0)
        self.assertNotIn("unresolved", text)

    def test_wide_spread_is_unresolved(self):
        flagged, text = self.compare(self.side([5, 10, 15, 20, 10]),
                                     self.side([15, 15, 15, 15, 15]))
        self.assertEqual(flagged, 0)
        self.assertIn("unresolved", text)


@unittest.skipUnless(os.environ.get("PERFBENCH_SMOKE") == "1",
                     "set PERFBENCH_SMOKE=1 to build and run every workload")
class Smoke(unittest.TestCase):
    def test_every_workload_once(self):
        proc = subprocess.run([sys.executable, run.__file__, "--smoke"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        for w in run.WORKLOADS:
            self.assertIn("== %s ==" % w, proc.stdout)


if __name__ == "__main__":
    unittest.main()
