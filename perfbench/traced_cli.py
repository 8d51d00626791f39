#!/usr/bin/env python3
"""Run one ``crowdaug`` CLI command with the outside-in tracer installed.

    python3 perfbench/traced_cli.py TRACE.json OP_ID -- <crowdaug arguments>

``src`` must be on ``PYTHONPATH``. The tracer's aggregates and spans are
written to TRACE.json when the command returns; the exit code is the CLI's.
"""
import importlib
import sys

from tracer import MODULES, Tracer, install


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[4:]
    modules = {name: importlib.import_module(f"crowdaug.{name}") for name in MODULES}
    tracer = Tracer(op_id)
    install(tracer, modules)
    try:
        return modules["cli"].main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
