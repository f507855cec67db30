"""``python -m repro serve`` with every layer wrapped (see ``tracing.py``).

Installs the span wrappers, then calls ``repro.service.daemon.serve``.
On SIGTERM it shuts the daemon down as on Ctrl-C and writes its spans,
and the seconds its imports took, to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import importlib
import signal
import sys
import time

import tracing

#: daemon worker threads, traced or not (``repro serve --workers``)
WORKERS = 2


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    daemon = importlib.import_module("repro.service.daemon")
    targets = tracing.TARGETS + tracing.SERVICE_TARGETS
    for module in sorted({module for _, module, _ in targets}):
        importlib.import_module(module)
    import_s = time.perf_counter() - start
    recorder = tracing.Recorder()
    recorder.install(targets)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return daemon.serve(host=args.host, port=args.port, workers=WORKERS)
    finally:
        recorder.dump(args.trace_out, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
