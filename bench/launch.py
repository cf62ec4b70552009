"""Run the mvstoch CLI in this process, as the ``mvstoch`` console script does.

Usage: python3 bench/launch.py MODE RECORD -- SUBCOMMAND [CLI ARGUMENTS]

MODE is one of
  plain  run the CLI unchanged
  setup  return at entry of the subcommand runner: interpreter start,
         ``import mvstoch.cli`` and config parse, no computation
  time   plain, with every layer in bench/layers.py timed
  mem    plain, with the tracemalloc peak of every layer recorded

The mvstoch package is imported from the ``src`` directory next to this
file's parent.  Before exiting, the process writes RECORD, a JSON object
with ``entry_ns`` (CLOCK_MONOTONIC at runner entry), ``import_s`` and, in
the traced modes, the layer report.  The report files the CLI writes are
not touched.
"""

import json
import sys
import time
from pathlib import Path

MODES = ("plain", "setup", "time", "mem")


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] not in MODES or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, record_path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[4:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import mvstoch.cli as cli
    record = {"import_s": time.perf_counter() - t0, "module": cli.__file__}

    def at_entry(runner):
        def entered(*args, **kwargs):
            record["entry_ns"] = time.monotonic_ns()
            return 0 if mode == "setup" else runner(*args, **kwargs)
        return entered

    for name, runner in list(cli.RUNNERS.items()):
        cli.RUNNERS[name] = at_entry(runner)

    tracer = None
    if mode in ("time", "mem"):
        import layers
        tracer = layers.Tracer(mode)
        layers.install(tracer)
        if mode == "mem":
            import tracemalloc
            tracemalloc.start()
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            record["layers"] = tracer.report()
        record_path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
