"""Run one groupinv CLI command with the layer tracer installed.

Usage: python3 traced_cli.py TRACE_FILE COMMAND [ARGS...]

Behaves like ``python -m groupinv.cli COMMAND [ARGS...]`` (same output, same
exit code) and writes the tracer's totals and spans, plus the time taken to
import ``groupinv.cli``, to TRACE_FILE as JSON when the command ends.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> None:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import groupinv.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        groupinv.cli.main(args=argv, prog_name="groupinv")
    finally:
        data = tracer.to_json_dict()
        data["import_s"] = import_s
        with open(trace_file, "w") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    main()
