"""Traced CLI child: ``python3 bench/cli_bootstrap.py <pqforms argv>``.

Imports ``pqforms.cli``, installs the :mod:`tracer` wrappers and calls
``pqforms.cli.main(argv)``, exactly as ``python -m pqforms.cli`` would.  On
exit it writes the tracer records, the import time and the time in ``main``
to the JSON file named by ``BENCH_TRACE_FILE``.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import pqforms.cli  # noqa: E402  (timed: a fresh import)

imported = time.perf_counter()

import tracer  # noqa: E402

recorder = tracer.Tracer()
recorder.install()
code = 1
main_start = time.perf_counter()
recorder.enabled = True
try:
    code = pqforms.cli.main(sys.argv[1:])
finally:
    main_ms = (time.perf_counter() - main_start) * 1000
    recorder.enabled = False
    with open(os.environ["BENCH_TRACE_FILE"], "w", encoding="utf-8") as handle:
        json.dump({"import_ms": (imported - start) * 1000, "main_ms": main_ms, "raw": recorder.raw()}, handle)
sys.exit(code)
