"""Run one round of a workload's rzk commands in this process.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the checkout's src directory, the rzk argument lists of one
round, the output directory the round starts without, whether to trace,
and where to write the result.  The result holds the round's wall time
(the speed probe's own time left out), the same at reference speed, the
median kernel time of the speed probe during it, the commands' exit codes
and standard output, and the peak resident memory; with tracing, the
round's per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import sys

from speed import SpeedProbe


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    from rzk import cli
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"rzk imported from {cli.__file__}, not from {src}")
    probe = SpeedProbe()
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer(probe.clock)
        tracer.install()
    shutil.rmtree(spec["out"], ignore_errors=True)
    outs = []
    probe.start()
    t0 = probe.clock()
    for argv in spec["commands"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        outs.append([rc, buf.getvalue()])
    wall = probe.clock() - t0
    ref_s, kernel_s = probe.stop()
    result = {"round_s": wall, "ref_s": ref_s, "kernel_s": kernel_s,
              "outputs": outs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write(spec["trace_file"])
    with open(spec["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
