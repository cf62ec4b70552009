"""Self-test of the benchmark harness on tiny configs, in about a minute.

Usage: python3 bench/selftest.py [-v]

Runs the whole pipeline (config generation, set-up probes, verified runs,
both traced passes, the results file) once per workload kind, then checks
that a tampered report, a nonzero exit, a signal and a timeout each count
as a failure, and that a directory holding only the benchmark refuses to
run.  Scratch files go to ``.bench_runs/selftest/`` in the checkout.
"""

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import unittest
from pathlib import Path

import harness
import run
from workloads import WORKLOADS

WORK = run.WORK / "selftest"

TINY = {
    "example7": {"time.N": 64, "grid.J": 64, "alphas": [0.25, 1.0],
                 "isometry.scenarios": 2000, "isometry.n_steps": 64,
                 "diagnostic.n_steps": 256, "diagnostic.scenarios": 50, "diagnostic.levels": 4},
    "conditions": {"time.N": 64, "grid.J": 128},
    "volterra": {"time.N": 32, "scenarios.count": 10, "diagnostic.n_steps": 256,
                 "diagnostic.scenarios": 50, "diagnostic.levels": 4},
    "approx-tree": {"scenarios.depth": 4, "time.N": 4},
}


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _replace(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, f"{old!r} not in {path.name}"
    path.write_text(text.replace(old, new, 1))


def _first_identity_gap_large(path: Path) -> None:
    lines = path.read_text().splitlines()
    kernel, _, density_gap = lines[1].rsplit(",", 2)
    lines[1] = f"{kernel},0.001,{density_gap}"
    path.write_text("\n".join(lines) + "\n")


def _second_q_error_to_first(path: Path) -> None:
    lines = path.read_text().splitlines()
    first, second = lines[1].split(","), lines[2].split(",")
    second[3] = first[3]
    lines[2] = ",".join(second)
    path.write_text("\n".join(lines) + "\n")


# one tamper per workload that only its own check can see
TAMPER = {
    "example7": lambda out: _replace(out / "example7_report.csv", ",True\n", ",False\n"),
    "conditions": lambda out: _edit_json(
        out / "conditions.json",
        lambda d: d["certificate"].__setitem__("hypotheses_met", False)),
    "volterra": lambda out: _first_identity_gap_large(out / "volterra_report.csv"),
    "approx-tree": lambda out: _second_q_error_to_first(out / "approx_report.csv"),
}


def quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


class Pipeline(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def check_workload(self, name):
        result = quiet(run.run_workload, name, 3, 0, False, TINY[name], WORK)
        self.assertEqual(result["failed"], 0, result["samples"])
        self.assertTrue(result["correct"])
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, self.end_to_end)
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
        self.assertIn("numpy", result["provenance"])

        traced = quiet(run.run_workload, name, 3, 0, True, TINY[name], WORK)
        self.assertEqual(traced["failed"], 0, traced["samples"])
        self.assertEqual({k: m["unit"] for k, m in traced["metrics"].items()}, self.per_layer)

        # the reports of the last run pass, and fail once tampered with
        s = run.Session(WORKLOADS[name], 3, TINY[name], WORK)
        out = s.dir / "out"
        digest, failure = run.check_reports(s.wl, s.cfg, out, s.expected_digest)
        self.assertIsNone(failure)
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        TAMPER[name](out)
        _, failure = run.check_reports(s.wl, s.cfg, out, None)
        self.assertIsNotNone(failure, f"{name}: tampered report passed its own check")
        _, failure = run.check_reports(s.wl, s.cfg, out, digest["all"])
        self.assertIn("differs", failure)
        for file_name, data in saved.items():
            (out / file_name).write_bytes(data)
        _edit_json(out / "summary.json", lambda d: d.__setitem__("pass", False))
        _, failure = run.check_reports(s.wl, s.cfg, out, None)
        self.assertIn("summary.json", failure)

    def test_example7(self):
        self.check_workload("example7")

    def test_conditions(self):
        self.check_workload("conditions")

    def test_volterra(self):
        self.check_workload("volterra")

    def test_approx_tree(self):
        self.check_workload("approx-tree")


class Failures(unittest.TestCase):
    def test_nonzero_exit_is_a_failure(self):
        bad = {**TINY["example7"], "alphas": [-1.0]}  # the CLI exits 2 on this config
        result = quiet(run.run_workload, "example7", 3, 0, False, bad, WORK)
        runs = [x for x in result["samples"] if x["mode"] == "plain"]
        self.assertEqual(len(runs), 1)
        self.assertEqual(runs[0]["failure"], "exit status 2")
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})

    def test_signal_is_a_failure(self):
        WORK.mkdir(parents=True, exist_ok=True)
        code = "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"
        outcome = harness.spawn([sys.executable, "-c", code], 60, WORK / "killed")
        self.assertEqual(outcome.signal, signal.SIGKILL)
        self.assertIn("SIGKILL", outcome.failure())

    def test_timeout_is_a_failure(self):
        WORK.mkdir(parents=True, exist_ok=True)
        code = "import time; time.sleep(60)"
        outcome = harness.spawn([sys.executable, "-c", code], 0.5, WORK / "slept")
        self.assertTrue(outcome.timed_out)
        self.assertLess(outcome.wall_s, 30)
        self.assertIn("timed out", outcome.failure())

    def test_refuses_to_run_without_sources(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        res = subprocess.run([sys.executable, "bench/run.py", "--workload", "volterra",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn("{", res.stdout)


if __name__ == "__main__":
    unittest.main()
