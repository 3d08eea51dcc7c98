"""Traced stand-in for ``python -m repdual.cli``.

Usage: python benchmarks/cli_driver.py TRACE_OUT -- <repdual arguments>

Imports ``repdual.cli`` (timing the import), installs the benchmark's
wrappers, runs ``repdual.cli.main`` on the arguments and writes the spans and
counters to TRACE_OUT as JSON.  Stdout and the exit code are the CLI's own,
so they can be compared byte for byte with an untraced run.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: cli_driver.py TRACE_OUT -- <repdual arguments>", file=sys.stderr)
        return 2
    trace_out, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import repdual.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.counts["cli.import_s"] = import_s
    tracer.install()
    try:
        code = repdual.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
