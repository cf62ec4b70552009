"""Process control, report digests and provenance for the benchmark."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

KIB_PER_MB = 1024.0  # ru_maxrss is in KiB on Linux; MB here means MiB


@dataclass
class Outcome:
    """How one child process ended, with its own resource usage."""

    returncode: int | None   # exit status, None when killed by a signal
    signal: int | None
    timed_out: bool
    start_ns: int            # CLOCK_MONOTONIC just before the spawn
    wall_s: float
    user_s: float
    sys_s: float
    peak_rss_mb: float

    @property
    def cpu_s(self) -> float:
        return self.user_s + self.sys_s

    def failure(self) -> str | None:
        """Why the process counts as failed, or None when it exited 0."""
        if self.timed_out:
            return f"timed out after {self.wall_s:.1f} s (killed by {signal.Signals(self.signal).name})"
        if self.signal is not None:
            return f"killed by signal {signal.Signals(self.signal).name}"
        if self.returncode != 0:
            return f"exit status {self.returncode}"
        return None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], timeout_s: float, log_prefix: Path, cwd: Path | None = None) -> Outcome:
    """Run argv to completion in its own process group and reap it with wait4.

    stdout and stderr go to ``<log_prefix>.out`` and ``.err``.  After
    ``timeout_s`` the whole group is killed.  Should this process be
    interrupted while waiting, the group is killed and reaped first.
    """
    timed_out = threading.Event()
    with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=cwd, start_new_session=True)

    def expire():
        timed_out.set()
        _kill_group(proc.pid)

    timer = threading.Timer(max(timeout_s, 0.0), expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        end_ns = time.monotonic_ns()
    except BaseException:
        _kill_group(proc.pid)
        try:
            os.wait4(proc.pid, 0)
        except ChildProcessError:
            pass
        proc.returncode = -1
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
    return Outcome(
        returncode=None if sig is not None else os.WEXITSTATUS(status),
        signal=sig, timed_out=timed_out.is_set(), start_ns=start_ns,
        wall_s=(end_ns - start_ns) / 1e9, user_s=usage.ru_utime, sys_s=usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / KIB_PER_MB)


def tail(path: Path, lines: int = 5) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_digest(out_dir: Path) -> dict:
    """sha256 of every report file and one over all of them, by name."""
    files = {p.name: sha256_file(p) for p in sorted(out_dir.iterdir()) if p.is_file()}
    total = hashlib.sha256("".join(f"{n}\0{h}\n" for n, h in files.items()).encode())
    return {"all": total.hexdigest(), "files": files}


def source_digest(src: Path) -> str:
    """sha256 over the package sources, to key results when git is absent."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(f"{p.relative_to(src)}\0".encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _meminfo(field: str) -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _blas() -> dict:
    try:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (ImportError, KeyError, TypeError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def provenance(root: Path, configs: dict[str, Path], seed: int) -> dict:
    """What produced a result: code, inputs, libraries and machine."""
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "mvstoch"),
        "bench_sha256": source_digest(root / "bench"),
        "config_sha256": {name: sha256_file(p) for name, p in configs.items()},
        "workload_seed": seed,
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kib": _meminfo("MemTotal"),
        "mem_available_kib_at_start": _meminfo("MemAvailable"),
        "platform": platform.platform(),
    }
