"""Tests of the benchmark itself.

    python3 -m unittest discover -s benchmark -p 'test_*.py'

Run from the root of a checkout; the first run builds `mbirctl` the way
`run.py` does.
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


class Generation(unittest.TestCase):
    """The same seed gives the same inputs, byte for byte."""

    @classmethod
    def setUpClass(cls):
        cls.mbirctl, _ = run.build()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.dir = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def scan(self, seed, i, name):
        out = self.dir / name
        argv = [str(self.mbirctl), *run.scan_args("test", seed, i, out)]
        subprocess.run(argv, check=True, capture_output=True)
        return out.read_bytes()

    def test_same_seed_gives_identical_scans(self):
        self.assertEqual(self.scan(7, 3, "a.csv"), self.scan(7, 3, "b.csv"))
        self.assertNotEqual(self.scan(7, 3, "a.csv"), self.scan(8, 3, "c.csv"))

    def test_same_seed_gives_identical_job_files(self):
        self.assertEqual(run.serve_jobs(7), run.serve_jobs(7))
        self.assertNotEqual(run.serve_jobs(7), run.serve_jobs(8))
        self.assertEqual(run.serve_jobs(7, 1), run.serve_jobs(7, 1))

    def test_job_files_are_admitted_whole(self):
        for iters in (None, 1):
            jobs = self.dir / "jobs.json"
            jobs.write_text(run.serve_jobs(3, iters))
            out = self.dir / "report.json"
            subprocess.run([str(self.mbirctl), "serve", "--jobs", str(jobs), "--devices",
                            str(run.SERVE_DEVICES), "--out", str(out)],
                           check=True, capture_output=True)
            report = json.loads(out.read_text())
            self.assertEqual(report["rejected"], 0)
            self.assertEqual(report["completed"], run.SERVE_JOBS)
            if iters is None:
                # The spacing is meant to make leases contend.
                self.assertGreater(report["preemptions"], 0)


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        for name in run.END_TO_END + run.PER_LAYER:
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertTrue(UNIT.fullmatch(run.unit_of(name)), name)
        names = run.END_TO_END + run.PER_LAYER
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_what_run_py_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([m["name"] for m in spec[key]], list(names))
            for m in spec[key]:
                self.assertEqual(m["unit"], run.unit_of(m["name"]), m["name"])


if __name__ == "__main__":
    unittest.main()
