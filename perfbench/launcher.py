"""Run one ``mobius-tree`` command from the checkout's ``src``.

Usage: python3 perfbench/launcher.py <mobius-tree arguments>

Equivalent to the ``mobius-tree`` console script.  When the environment
variable PERFBENCH_TRACE names a file, the layer wrappers of
``tracer.py`` are installed around ``mobiustree.cli.main`` and their
totals are written to that file as JSON when the command returns.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mobiustree.cli import main  # noqa: E402


def traced_main(argv, trace_file):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return main(argv)
    finally:
        tracer.uninstall()
        with open(trace_file, "w") as f:
            json.dump(tracer.dump(), f)


if __name__ == "__main__":
    trace_file = os.environ.get("PERFBENCH_TRACE")
    if trace_file:
        sys.exit(traced_main(sys.argv[1:], trace_file))
    sys.exit(main(sys.argv[1:]))
