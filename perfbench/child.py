"""Fresh-interpreter children of the benchmark.

    python3 perfbench/child.py ready <workload>   import fucik and finish the
                                                  lazy set-up the workload uses
    python3 perfbench/child.py cli <fucik args>   run the CLI in-process with
                                                  the span tracer installed

numpy is imported first in both, so an ``-X importtime`` report separates
numpy's import from fucik's.  The shim writes its stdout exactly as the CLI
does and appends one ``PERFBENCH {json}`` line to stderr with the command
time and the tracer's totals.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    import numpy  # noqa: F401

    if mode == "ready":
        import fucik

        if sys.argv[2] == "cli-cold":
            import fucik.cli  # noqa: F401

            # the lazy caches the round's root and region commands fill
            fucik.envelope_root()
            fucik.zeta(1.5)
        return 0

    import fucik.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    t0 = time.perf_counter()
    code = fucik.cli.main(sys.argv[2:])
    command_ms = 1e3 * (time.perf_counter() - t0)
    tracer.enabled = False
    sys.stdout.flush()
    report = {"command_ms": command_ms, **tracer.summary()}
    print("PERFBENCH " + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
