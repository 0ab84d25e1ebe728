"""One repetition in a fresh interpreter: import qkdlab.cli, then call main.

    python3 child.py RESULT_JSON import|run|trace [QKDLAB ARGS...]

``import`` stops after the import; ``run`` also calls
``qkdlab.cli.main(QKDLAB ARGS)`` and ``trace`` does so with every layer
function wrapped by ``spans.Tracer``.  RESULT_JSON receives the
CLOCK_MONOTONIC time at which the import finished (the parent subtracts the
time it spawned this process), the wall time of ``main`` and its exit code,
plus the span summary when traced.  The raw spans go to RESULT_JSON with the
suffix ``.spans.json``.
"""

import os
import sys
import time

# Nothing but sys, os and time is imported before qkdlab.cli, so the import
# time is the program's own set-up.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import qkdlab.cli  # noqa: E402

imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402


def main(argv):
    result_path, mode, cli_args = argv[0], argv[1], argv[2:]
    result = {"imported_at": imported_at}
    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    if mode in ("run", "trace"):
        start = time.perf_counter()
        result["exit"] = qkdlab.cli.main(cli_args)
        result["run_s"] = time.perf_counter() - start
    if tracer is not None:
        result["trace"] = tracer.summary()
        with open(result_path + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
