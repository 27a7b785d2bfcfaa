"""Traced stand-in for ``python -m rbx.cli``, used by the traced ``cli`` run.

Times ``import rbx.cli`` and ``rbx.cli.main(argv)`` in this process, traces
the rbx calls that ``main`` makes, and prints the totals on stderr after
``TRACE_MARK``.  Exit status, stdout and uncaught exceptions are those of
``python -m rbx.cli``.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import rbx.cli  # noqa: E402

imported = perf_counter()

from tracer import TRACE_MARK, Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.begin()
main_start = perf_counter()
try:
    code = rbx.cli.main(sys.argv[1:])
finally:
    main_s = perf_counter() - main_start
    tracer.end()
    report = dict(tracer.summary(), cache=tracer.cache_counts(),
                  import_s=imported - start, main_s=main_s)
    print(TRACE_MARK + json.dumps(report), file=sys.stderr)
sys.exit(code)
