"""Run one navfuse command in this fresh process and report it as JSON.

``python3 perfbench/worker.py [--trace SPANS.npz] -- COMMAND ARGS...``
imports ``navfuse.cli``, then times ``navfuse.cli.main`` on the command,
so the import is not in ``wall_s``.  The last stdout line is
``{"rc": ..., "wall_s": ..., "peak_rss_kb": ...}``, plus ``"trace"`` (the
per-function summary) when tracing; the spans are then written to
SPANS.npz after the command returns.
"""

import json
import sys
from time import perf_counter


def peak_rss_kb():
    """This process image's resident high-water mark (VmHWM).

    Not ``ru_maxrss``: Linux carries that over from the parent's memory
    at fork, so it would report the benchmark's own footprint.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1 :]
    import navfuse.cli

    tracer = None
    if options[:1] == ["--trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    rc = navfuse.cli.main(command)
    wall = perf_counter() - t0
    report = {
        "rc": rc,
        "wall_s": wall,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write(options[1])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
