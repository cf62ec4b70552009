"""mvstoch benchmark: time to a verified report, end to end and per layer.

Usage:
  python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in bench/workloads.py, or ``all`` to run each
in turn.  The package is imported from the ``src/`` directory beside this
``bench/`` directory, and the run stops with exit status 2 when there is
none.  Scratch files and a JSON results file per invocation, with the run's
provenance and every sample, go to ``.bench_runs/`` beside it.

Every measurement runs the mvstoch CLI as a child process (bench/launch.py
does what the ``mvstoch`` console script does), one at a time: a closed
loop with a single client, so workloads never overlap.  Nothing is pinned:
OpenBLAS uses the threads it would use for any user, and ``--threads`` (a
documented no-op) is never passed.

--trace 0 (end to end).  After one untimed warm-up that stops at the
subcommand runner, the CLI runs to completion again and again until about
``--seconds`` have passed.  Per workload it prints, as medians over the
runs whose reports pass verification:
  wall_s       spawn to exit of one verified CLI run
  setup_s      spawn to entry of the subcommand runner (interpreter start,
               ``import mvstoch.cli``, config parse)
  cpu_s        child user + sys time, from wait4
  peak_rss_mb  child ru_maxrss
and fail_frac, the share of CLI runs that exited nonzero, died by a signal
or timeout, or whose reports failed a check.  The checks are the workload's
own (bench/workloads.py) plus one on the sha256 of the reports, which must
match every earlier run of the same code and config.

--trace 1 (per layer).  After one discarded full run: one untraced run, one
run timing every layer function (calls, self and total seconds) and one
recording each one's tracemalloc peak.  Traced reports must be byte-identical to the untraced
ones.  trace_overhead_s and tracemalloc_overhead_s are the traced walls
minus the untraced wall.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import harness
import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_runs"
LAUNCH = BENCH / "launch.py"

RUN_LIMIT_S = 170.0   # one invocation per workload must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Session:
    """One workload at one seed: its generated config and scratch directory."""

    def __init__(self, workload, seed: int, extra: dict | None = None, work: Path = WORK):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.dir = work / workload.name / f"seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = workload.config(ROOT, seed, extra)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2, sort_keys=True) + "\n")
        self.prov = harness.provenance(ROOT, {workload.name: self.cfg_path}, seed)
        self.expected_digest = _stored_digest(self)
        self.samples: list[dict] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, mode: str) -> dict:
        """One CLI run in launch mode ``mode``; returns its sample record."""
        n = len(self.samples)
        out = self.dir / ("probe" if mode == "setup" else "out")
        shutil.rmtree(out, ignore_errors=True)
        record_path = self.dir / f"record{n}.json"
        record_path.unlink(missing_ok=True)
        argv = [sys.executable, str(LAUNCH), mode, str(record_path), "--",
                self.wl.subcommand, "--config", str(self.cfg_path), "--out", str(out),
                *self.wl.cli_args(self.cfg)]
        outcome = harness.spawn(argv, self.deadline - time.monotonic(), self.dir / f"log{n}")
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            record = {}
        sample = {"mode": mode, "wall_s": outcome.wall_s, "cpu_s": outcome.cpu_s,
                  "user_s": outcome.user_s, "sys_s": outcome.sys_s,
                  "peak_rss_mb": outcome.peak_rss_mb, "returncode": outcome.returncode,
                  "signal": outcome.signal, "timed_out": outcome.timed_out,
                  "setup_s": None, "digest": None, "failure": outcome.failure()}
        if sample["failure"] is None and "entry_ns" not in record:
            sample["failure"] = "subcommand runner was never entered"
        if sample["failure"] is None and not record["module"].startswith(str(ROOT / "src")):
            sample["failure"] = f"ran mvstoch from {record['module']}, not from this checkout"
        if sample["failure"] is None:
            sample["setup_s"] = (record["entry_ns"] - outcome.start_ns) / 1e9
            if mode != "setup":
                sample["digest"], sample["failure"] = check_reports(
                    self.wl, self.cfg, out, self.expected_digest)
        if sample["failure"] is not None:
            sample["stderr_tail"] = harness.tail(self.dir / f"log{n}.err")
        elif mode != "setup" and self.expected_digest is None:
            self.expected_digest = sample["digest"]["all"]
            _store_digest(self)
        sample["record"] = record
        self.samples.append(sample)
        return sample

    def left_s(self) -> float:
        return self.deadline - time.monotonic()


def check_reports(workload, cfg: dict, out: Path, expected: str | None):
    """Digest of a run's reports, and the problems found joined, or None."""
    try:
        digest = harness.report_digest(out)
    except OSError as exc:
        return None, f"no reports: {exc}"
    problems = workload.verify(out, cfg)
    if expected is not None and digest["all"] != expected:
        problems.append(f"report sha256 {digest['all'][:12]} differs from {expected[:12]} "
                        "of an earlier run of the same code and config")
    return digest, ("; ".join(problems) or None)


def _digest_key(s: Session) -> str:
    return f"{s.prov['source_sha256']}/{s.wl.name}/{s.prov['config_sha256'][s.wl.name]}"


def _stored_digest(s: Session) -> str | None:
    path = s.work / "digests.json"
    try:
        return json.loads(path.read_text()).get(_digest_key(s))
    except (OSError, ValueError):
        return None


def _store_digest(s: Session) -> None:
    path = s.work / "digests.json"
    try:
        table = json.loads(path.read_text())
    except (OSError, ValueError):
        table = {}
    table[_digest_key(s)] = s.expected_digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def measure(s: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one workload; returns (metrics, details)."""
    s.run("setup")  # warm-up: a fresh checkout compiles its bytecode here
    t0 = time.monotonic()
    while s.left_s() > 1:
        sample = s.run("plain")
        elapsed = time.monotonic() - t0
        # stop once another run would likely end over half a run past `seconds`
        if elapsed + sample["wall_s"] / 2 >= seconds or s.left_s() < 1.5 * sample["wall_s"]:
            break
    runs = [x for x in s.samples if x["mode"] == "plain" and x["failure"] is None]
    if not runs:
        return {}, {"runs": 0}
    names = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
    return {k: statistics.median(x[k] for x in runs) for k in names}, {"runs": len(runs)}


def trace(s: Session) -> dict:
    """Per-layer metrics of one workload from a timing and a tracemalloc pass."""
    # A discarded full run first: the first full run after a workload change
    # is often the slowest, and the overheads compare single runs.
    s.run("plain")
    plain = s.run("plain")
    timed = s.run("time") if plain["failure"] is None else None
    mem = s.run("mem") if timed is not None and timed["failure"] is None else None
    if mem is None or mem["failure"] is not None:
        return {}
    t_layers, m_layers = timed["record"]["layers"], mem["record"]["layers"]
    problems = []
    if t_layers["computed"] != m_layers["computed"]:
        problems.append("computed counts differ between the timing and tracemalloc passes")
    metrics = {}
    for key in layers.LAYER_KEYS:
        t, m = t_layers["functions"][key], m_layers["functions"][key]
        if t["calls"] != m["calls"]:
            problems.append(f"{key}: {t['calls']} calls timed but {m['calls']} under tracemalloc")
        metrics[f"{key}.calls"] = t["calls"]
        metrics[f"{key}.self_s"] = t["self_s"]
        metrics[f"{key}.total_s"] = t["total_s"]
        metrics[f"{key}.peak_mb"] = m["peak_bytes"] / layers.MB
    metrics.update(t_layers["computed"])
    metrics["cli.import_s"] = plain["record"]["import_s"]
    metrics["trace_overhead_s"] = timed["wall_s"] - plain["wall_s"]
    metrics["tracemalloc_overhead_s"] = mem["wall_s"] - plain["wall_s"]
    if problems:
        mem["failure"] = "; ".join(problems)
        return {}
    return metrics


def layer_unit(name: str) -> str:
    if name in layers.COMPUTED_UNITS:
        return layers.COMPUTED_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    return "MB" if name.endswith("_mb") else "s"


def wall_history(s: Session) -> list[float]:
    """wall_s samples of every stored run of this workload, code and benchmark."""
    walls = []
    for path in (s.work / "results").glob(f"{s.wl.name}-seed*-trace0-*.json"):
        try:
            old = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if all(old["provenance"][k] == s.prov[k] for k in ("source_sha256", "bench_sha256")):
            walls += [x["wall_s"] for x in old["samples"]
                      if x["mode"] == "plain" and x["failure"] is None]
    return walls


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 extra: dict | None = None, work: Path = WORK) -> dict:
    s = Session(WORKLOADS[name], seed, extra, work)
    metrics, details = (trace(s), {}) if traced else measure(s, seconds)
    attempted = len(s.samples)
    failed = sum(x["failure"] is not None for x in s.samples)
    units = ({k: layer_unit(k) for k in metrics} if traced
             else {k: END_TO_END_UNITS[k] for k in metrics})
    result = {"workload": name, "seed": seed, "trace": int(traced), "seconds": seconds,
              "correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": {k: {"value": v, "unit": units[k]}
                                             for k, v in metrics.items()},
              "details": details, "provenance": s.prov, "samples": s.samples}
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(traced)}-{time.time_ns()}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print_result(result, s, path)
    return result


def print_result(result: dict, s: Session, path: Path) -> None:
    name, att, fail = result["workload"], result["attempted"], result["failed"]
    print(f"== {name}  seed {result['seed']}  trace {result['trace']}  "
          f"({att} CLI runs attempted, {fail} failed)")
    for x in s.samples:
        if x["failure"] is not None:
            sig = f" signal {x['signal']}" if x["signal"] is not None else ""
            print(f"   FAILED {x['mode']} run{sig}: {x['failure']}")
    for key, m in result["metrics"].items():
        label = "  (computed)" if key in layers.COMPUTED_UNITS else ""
        print(f"   {key:<52} {m['value']:>14.6g} {m['unit']}{label}")
    if not result["trace"]:
        print(f"   {'fail_frac':<52} {fail / att:>14.6g} ratio  ({fail} of {att})")
        print(f"   each metric is the median over {result['details']['runs']} verified runs")
        walls = sorted(wall_history(s))
        if len(walls) >= 11:
            q = int(100 * (len(walls) - 10) / len(walls))
            print(f"   all stored runs of this code and workload: {len(walls)} wall_s samples, "
                  f"median {statistics.median(walls):.6g} s, p{q} {walls[-11]:.6g} s "
                  f"(10 samples beyond it)")
        else:
            print(f"   all stored runs of this code and workload: {len(walls)} wall_s samples; "
                  "a high percentile needs at least 11")
    print(f"   results: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mvstoch" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: no mvstoch sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if len(results) == 1:
        metrics = {k: m for k, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if all(r["metrics"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
