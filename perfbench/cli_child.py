"""Run one ospuir command as the installed console script would.

Usage: python3 perfbench/cli_child.py [--trace | --import-only] <ospuir arguments...>

The command itself is `sys.exit(ospuir.cli.main(argv))`.  Around it a
SpeedProbe samples the CPU speed, and once the command has written its
output one marked JSON line goes to stderr: the probe's samples and, with
--trace, the layer totals (stdout stays byte-for-byte the command's own).
--import-only imports ospuir.cli and stops: the set-up of cli-cold.
"""

import json
import sys
import time

from probe import SpeedProbe

REPORT_MARK = "@@perfbench "


def main() -> int:
    argv = sys.argv[1:]
    mode = argv[0] if argv and argv[0] in ("--trace", "--import-only") else None
    if mode:
        argv = argv[1:]
    t_start = time.perf_counter()
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import ospuir.cli
    t_import = time.perf_counter() - t0
    tracer = None
    if mode == "--trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rc = 0
    t1 = time.perf_counter()
    if mode != "--import-only":
        rc = ospuir.cli.main(argv)
    t_request = time.perf_counter() - t1
    sys.stdout.flush()
    probe.stop()
    report = probe.window(t_start, time.perf_counter())
    if tracer is not None:
        layers = tracer.totals()
        layers["cli.import_s"] = t_import
        layers["cli.request_s." + argv[0]] = t_request
        report["layers"] = layers
    sys.stderr.write(REPORT_MARK + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
