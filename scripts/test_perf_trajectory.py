#!/usr/bin/env python3
"""Unit tests for perf_trajectory.py, run as a subprocess on temp files.

Usage (from the repository root):
    python3 -m unittest discover -s scripts -p 'test_*.py' -v
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "perf_trajectory.py"
DATE = "2026-10-16"


def bench_json(levelized: float = 0.2, **overrides) -> dict:
    """A minimal bench --quick --json document the script accepts."""
    doc = {
        "schema": 1,
        "ocaml_version": "5.2.0",
        "domains": 2,
        "kernel": {
            "circuit": "s1423",
            "seconds_levelized_1": levelized,
        },
        "circuits": [{"circuit": "s27", "seconds": 0.01}, {"circuit": "s298", "seconds": 0.2}],
    }
    doc.update(overrides)
    return doc


class PerfTrajectory(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self) -> None:
        self.tmp.cleanup()

    def run_script(self, doc: dict, *args: str) -> subprocess.CompletedProcess:
        path = self.dir / "bench.json"
        path.write_text(json.dumps(doc))
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(path), "--out-dir", str(self.dir),
             "--date", DATE, *args],
            capture_output=True, text=True, check=False)

    def write_prior(self, date: str, levelized: float) -> None:
        prior = {"schema": 2, "kernel": {"seconds_levelized_1": levelized}}
        (self.dir / f"BENCH_{date}.json").write_text(json.dumps(prior))

    def test_snapshot_describes_its_run(self) -> None:
        r = self.run_script(bench_json(), "--commit", "abc123")
        self.assertEqual(r.returncode, 0, r.stderr)
        snap = json.loads((self.dir / f"BENCH_{DATE}.json").read_text())
        self.assertEqual(snap["schema"], 2)
        self.assertEqual(snap["commit"], "abc123")
        self.assertIsInstance(snap["nproc"], int)
        self.assertEqual(snap["ocaml_version"], "5.2.0")
        self.assertEqual(snap["domains"], 2)
        self.assertEqual([c["seconds"] for c in snap["circuits"]], [0.01, 0.2])

    def test_missing_circuits_is_bad_input(self) -> None:
        doc = bench_json()
        del doc["circuits"]
        self.assertEqual(self.run_script(doc).returncode, 2)

    def test_non_numeric_seconds_is_bad_input(self) -> None:
        doc = bench_json(circuits=[{"circuit": "s27", "seconds": "fast"}])
        self.assertEqual(self.run_script(doc).returncode, 2)

    def test_regression_beyond_budget_fails(self) -> None:
        self.write_prior("2026-10-01", 0.1)
        r = self.run_script(bench_json(levelized=0.2), "--budget", "0.25")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_within_budget_passes(self) -> None:
        self.write_prior("2026-10-01", 0.19)
        r = self.run_script(bench_json(levelized=0.2), "--budget", "0.25")
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_reference_free_kernel_section_is_accepted(self) -> None:
        # The kernel section carries only levelized figures; the gate
        # compares them with the prior snapshot, which may still hold the
        # older reference fields.
        prior = {"schema": 2, "kernel": {"seconds_levelized_1": 0.19,
                                          "seconds_reference": 0.5}}
        (self.dir / "BENCH_2026-10-01.json").write_text(json.dumps(prior))
        r = self.run_script(bench_json(levelized=0.2))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertNotIn("reference", r.stdout)
        snap = json.loads((self.dir / f"BENCH_{DATE}.json").read_text())
        self.assertEqual(snap["kernel"], {"circuit": "s1423", "seconds_levelized_1": 0.2})

    def test_missing_levelized_seconds_is_bad_input(self) -> None:
        doc = bench_json()
        del doc["kernel"]["seconds_levelized_1"]
        self.assertEqual(self.run_script(doc).returncode, 2)

    def test_no_prior_snapshot_is_advisory(self) -> None:
        r = self.run_script(bench_json())
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("advisory", r.stdout)


if __name__ == "__main__":
    unittest.main()
