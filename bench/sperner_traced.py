"""The `sperner` command with the benchmark's tracer installed.

Run as `python3 -X importtime bench/sperner_traced.py <sperner arguments>`
with PYTHONPATH pointing at the library sources and BENCH_SPANS_OUT naming
the file that receives this process's spans, counts and cache statistics
when the command ends.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from spernerlib import cli  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
tracer.query = 0
print(tracing.MAIN_STARTS, file=sys.stderr, flush=True)
try:
    code = cli.main()
finally:
    with open(os.environ["BENCH_SPANS_OUT"], "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
sys.exit(code)
