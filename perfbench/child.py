"""One workload process: ``monalg verify`` or the principal-extension script.

    python3 perfbench/child.py STATS TRACE verify ARGS...
    python3 perfbench/child.py STATS TRACE principal SEED OUT

The process runs the program unchanged and writes a JSON file ``STATS`` with
the ``time.monotonic()`` instant at which set-up ended (algebra, frames and
suite options resolved; for ``verify`` that is the entry to ``run_suites``)
and, with ``TRACE`` = 1, the spans of ``spans.Tracer``.  The exit code is
the program's.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    stats_path, trace, mode, *args = sys.argv[1:]
    stats = {}

    def on_setup():
        stats["setup_done"] = time.monotonic()

    import monalg.cli as cli

    principal = None
    if mode == "principal":
        import principal
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install(extra_namespaces=[principal] if principal else [])

    if mode == "verify":
        run_suites = cli.run_suites

        def stamped(*a, **kw):
            on_setup()
            return run_suites(*a, **kw)

        cli.run_suites = stamped
        run = lambda: cli.main(["verify", *args])
    elif mode == "principal":
        seed, out = args
        run = lambda: principal.main(int(seed), out, on_setup)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    try:
        return run()
    finally:
        if tracer is not None:
            stats["spans"] = tracer.stats
        with open(stats_path, "w") as handle:
            json.dump(stats, handle)


if __name__ == "__main__":
    sys.exit(main())
