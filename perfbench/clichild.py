"""The traced stand-in for ``python -m repro``.

Usage: ``python3 perfbench/clichild.py SPANS_FILE solve --n N ...``

It runs the CLI's entry point, ``repro.__main__.main``, with the
arguments after ``SPANS_FILE``, under the benchmark's wrappers, and
writes its spans there as JSON: a ``cli.start`` mark taken on the
script's first line, the ``cli.import`` of ``repro.__main__``, and every
layer call the solve makes.  Standard output is the CLI's own.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(
        {"id": 0, "name": "cli.start", "parent": None, "start": _STARTED, "end": _STARTED}
    )
    with tracer.span("cli.import"):
        import repro.__main__ as cli
    # Only the modules the CLI has loaded are wrapped: tracing must not
    # add imports to the process it times.
    tracer.install(loaded_only=True)
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
