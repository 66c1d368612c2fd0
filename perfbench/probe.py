"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/probe.py SPAWN_EPOCH ARGV_JSON

Imports rzk, then runs the rzk command given as a JSON argument list until
it reaches its first integration (batch_integrate, or the comparison
simulation of `rzk halanay`), and prints the seconds since SPAWN_EPOCH, the
wall-clock time at which the parent started this interpreter.
"""

import contextlib
import json
import os
import sys
import time


class Reached(BaseException):
    """Raised at the first integration step; not an Exception, so the CLI's
    own handlers let it through."""


def main(spawn, argv):
    from rzk import cli, halanay

    def stop(*args, **kwargs):
        raise Reached

    cli.batch_integrate = stop
    halanay.scalar_comparison_sim = stop
    try:
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            cli.main(argv)
    except Reached:
        print(repr(time.time() - spawn))
        return 0
    print("the command ended before its first integration", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]), json.loads(sys.argv[2])))
