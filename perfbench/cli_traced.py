"""Run the tropnc command line like `python -m tropnc.cli`, traced.

Usage: python perfbench/cli_traced.py <tropnc arguments>

Stdout is exactly what the untraced command prints.  The per-layer sums
of this process go to stderr as one line starting with PERFBENCH_TRACE,
with `cli.import_s` (the time to import tropnc.cli) added; `cli.main`
is wrapped too, so its self time is the codec, schema and emit work
outside the wrapped core calls.
"""

import json
import sys
import time

start = time.perf_counter()
import tropnc.cli as cli  # noqa: E402

import_s = time.perf_counter() - start

import tracer as tracing  # noqa: E402

if __name__ == "__main__":
    trace = tracing.Tracer(extra=(("cli", "main"),))
    trace.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        trace.uninstall()
    sums = trace.sums()
    sums["cli.import_s"] = import_s
    sys.stdout.flush()
    print(tracing.TRACE_PREFIX + json.dumps(sums), file=sys.stderr)
    sys.exit(code)
