"""Launch one serving process, optionally with span tracing installed.

Usage::

    python3 perfbench/launch.py [--trace-out FILE] server [server args]
    python3 perfbench/launch.py [--trace-out FILE] cluster ROLE [args]

``server`` runs ``python -m repro.server``'s ``main`` and ``cluster``
runs ``python -m repro.cluster``'s, with the given arguments.  With
``--trace-out`` the wrappers of :mod:`perfbench.tracing` are installed
first and the recorded spans are written to FILE when ``main`` returns
(stop the process with SIGINT).  Traced and untraced runs therefore
differ only in the wrappers.
"""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ENTRY_POINTS = {"server": "repro.server.__main__",
                "cluster": "repro.cluster.__main__"}


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if not argv or argv[0] not in ENTRY_POINTS:
        print(f"usage: launch.py [--trace-out FILE] "
              f"{{{'|'.join(ENTRY_POINTS)}}} [args...]", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"launch.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    entry = importlib.import_module(ENTRY_POINTS[argv[0]])
    if trace_out is None:
        return entry.main(argv[1:])
    from perfbench import tracing
    tracing.install()
    try:
        return entry.main(argv[1:])
    finally:
        tracing.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
