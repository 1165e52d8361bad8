"""``sitm-store serve`` with the benchmark's layer wrappers installed.

Usage: ``PYTHONPATH=src python3 perfbench/serve.py serve [serve flags]``.
Runs the unchanged ``serve`` command; after it exits it prints one
``PERFBENCH-TRACE <json>`` line with the server-side per-layer figures
and exits with the command's own exit code.

SIGUSR1 restarts the figures; SIGUSR2 freezes the ones printed at exit.
Each signal is acknowledged with a ``PERFBENCH-MARK`` line on stdout,
so the client can bracket exactly the requests it wants measured.
"""

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# import the benchmark as a package, not its modules as top-level names
sys.path[0] = ROOT

from perfbench.trace import (Spans, install_store, reset_store,  # noqa: E402
                             store_report)


def main() -> int:
    spans = Spans()
    record = install_store(spans)
    frozen = {}

    def on_signal(signum, _frame):
        if signum == signal.SIGUSR1:
            reset_store(spans, record)
        else:
            frozen["report"] = store_report(spans, record)
        print("PERFBENCH-MARK", flush=True)

    signal.signal(signal.SIGUSR1, on_signal)
    signal.signal(signal.SIGUSR2, on_signal)
    from repro.store.cli import main as store_main
    code = store_main(sys.argv[1:])
    report = frozen.get("report") or store_report(spans, record)
    print("PERFBENCH-TRACE " + json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
