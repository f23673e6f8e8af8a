"""The crkron command line inside a ``cli.main`` span.

Usage: PERFBENCH_TRACE_OUT=spans.json python3 perfbench/tracecli.py SRC_DIR ARGS...

Runs ``crkron.cli.main(ARGS)`` and writes its span as JSON to
PERFBENCH_TRACE_OUT.  The caller's ``cli.proc`` span around the whole
process, minus this one, is the command's start-up (cli.start_s).
"""

import sys

sys.path.insert(0, sys.argv[1])

import json  # noqa: E402
import os  # noqa: E402

import crkron.cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    sid = tracer.begin("cli.main")
    try:
        code = crkron.cli.main(sys.argv[2:])
    finally:
        tracer.end(sid)
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
