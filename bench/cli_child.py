"""Run one hamlabels CLI command under the span recorder.

Usage: python3 bench/cli_child.py SPANS_FILE <hamlabels arguments...>

Times ``import hamlabels.cli``, installs the same wrappers the library
workloads use, calls ``hamlabels.cli.main(argv)``, writes the spans to
SPANS_FILE and exits with the command's exit code.
"""

import sys
import time

import tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import hamlabels.cli
    import_s = time.perf_counter() - t0
    rec = tracer.Recorder()
    tracer.install(rec)
    rec.counters["cli.import.s"] += import_s
    try:
        return hamlabels.cli.main(argv)
    finally:
        rec.active = False
        rec.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
